// Pins the scalar Jones cascade bit for bit. The literals were recorded
// from the original per-call solver that evaluated every board two-port
// from scratch; the (f, vx, vy) overloads are now plan-then-evaluate
// wrappers over the per-frequency plans, and must reproduce those bits
// exactly. Covers both modes of every design in designs.h and the per-axis
// S-parameters of the prototype's boards.
#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/metasurface/designs.h"

namespace llama::metasurface {
namespace {

using common::Frequency;
using common::Voltage;

/// Jones matrix of designs()[design] in one mode at (ghz, vx, vy); `m`
/// holds re/im of (0,0), (0,1), (1,0), (1,1).
struct JonesGolden {
  int design;
  bool reflective;
  double ghz;
  double vx;
  double vy;
  double m[8];
};

/// Per-axis two-port of prototype board `board` at (ghz, bias); `s` holds
/// re/im of s11, s12, s21, s22.
struct SParamsGolden {
  std::size_t board;
  bool y_axis;
  double ghz;
  double bias;
  double s[8];
};

constexpr JonesGolden kJones[] = {
    {0, false, 2.4, 0.0, 30.0,
     {0x1.ce9de84527d14p-5, 0x1.6dd7661c18a2bp-4, -0x1.263f2386e22d8p-4,
      -0x1.a8518a5e40ec8p-3, 0x1.263f2386e22dap-4, 0x1.a8518a5e40ec6p-3,
      0x1.c242b66a67fcap-5, -0x1.c9c81ea1afb95p-6}},
    {0, false, 2.44, 7.25, 13.5,
     {-0x1.08f93de363037p-2, -0x1.b1d6480e7664ep-2, -0x1.d8d7341a2dc3cp-6,
      -0x1.f7e7a81abb29fp-3, 0x1.d8d7341a2dc3p-6, 0x1.f7e7a81abb2a2p-3,
      -0x1.ab4396de11e0cp-3, -0x1.a0f3eb0aa22bap-2}},
    {0, false, 2.48, 30.0, 2.0,
     {-0x1.b140506ea0acp-10, -0x1.5f7eb24d2523cp-5, 0x1.6b386330689d7p-2,
      -0x1.3eeaa0677fc3p-4, -0x1.6b386330689d7p-2, 0x1.3eeaa0677fc26p-4,
      -0x1.8ef97e94c55b8p-3, 0x1.2698c264947bep-3}},
    {0, true, 2.4, 0.0, 30.0,
     {-0x1.844a0e3104432p-3, 0x1.05ec1c5d69a26p-3, -0x1.633e533f99ed7p-4,
      0x1.602c223cfa68cp-4, -0x1.633e533f99ed7p-4, 0x1.602c223cfa68cp-4,
      -0x1.a20d91a5bb316p-4, 0x1.12544fe731105p-3}},
    {0, true, 2.44, 7.25, 13.5,
     {-0x1.5ff3e3f72915ap-3, -0x1.e9147f230cbbep-7, 0x1.f94a7ebd11d43p-7,
      0x1.0f36ce12b4ad9p-3, 0x1.f94a7ebd11d43p-7, 0x1.0f36ce12b4ad9p-3,
      -0x1.071a7388a17b9p-3, -0x1.8d78f88f4533ap-7}},
    {0, true, 2.48, 30.0, 2.0,
     {-0x1.4c228bae22b5p-3, -0x1.7233987900b75p-3, 0x1.809f632546ba3p-5,
      0x1.e4ece45c1227ap-4, 0x1.809f632546ba3p-5, 0x1.e4ece45c1227ap-4,
      -0x1.81f8097c62c05p-3, -0x1.91add885df21fp-4}},
    {1, false, 2.4, 0.0, 30.0,
     {0x1.1aa697c3379b2p-5, 0x1.cae5c14d3e2dep-6, -0x1.7a4152c552c5dp-4,
      -0x1.c6028c3426b38p-4, 0x1.7a4152c552c5cp-4, 0x1.c6028c3426b37p-4,
      0x1.ed72335eefbeep-5, -0x1.6a5374afd0995p-5}},
    {1, false, 2.44, 7.25, 13.5,
     {-0x1.272102eca4e4p-2, -0x1.66873dc4b229ap-3, -0x1.83bb53d66edeep-4,
      -0x1.ff445c89b8df8p-4, 0x1.83bb53d66edeep-4, 0x1.ff445c89b8df6p-4,
      -0x1.925cae5b7059ap-3, -0x1.93570328ed892p-3}},
    {1, false, 2.48, 30.0, 2.0,
     {-0x1.63b2fac8781cap-5, -0x1.319187a40a4bdp-4, 0x1.615a2ed6ff75cp-3,
      -0x1.dbb13eccfa07ap-4, -0x1.615a2ed6ff75bp-3, 0x1.dbb13eccfa075p-4,
      -0x1.43ab527e1b526p-4, 0x1.108ae78b814e5p-3}},
    {1, true, 2.4, 0.0, 30.0,
     {-0x1.008ad0833d7f2p-2, 0x1.57b55a9462261p-4, -0x1.7e4e736ce576p-5,
      0x1.66035800ee217p-4, -0x1.7e4e736ce576p-5, 0x1.66035800ee217p-4,
      -0x1.90b4af2f005edp-3, 0x1.0c9c29308c889p-4}},
    {1, true, 2.44, 7.25, 13.5,
     {-0x1.f52364c3fd88p-3, -0x1.8126649b7c245p-5, 0x1.9e2ef2d6bd096p-6,
      0x1.7b8b5f17dd0b3p-4, 0x1.9e2ef2d6bd096p-6, 0x1.7b8b5f17dd0b3p-4,
      -0x1.bfd8546b48ad1p-3, -0x1.d2e92cab0053ep-5}},
    {1, true, 2.48, 30.0, 2.0,
     {-0x1.10245c71fe49ep-2, -0x1.7b19adfd825b4p-3, 0x1.7e8ff92750faap-5,
      0x1.4c70cbd2775p-4, 0x1.7e8ff92750fa9p-5, 0x1.4c70cbd2775p-4,
      -0x1.1060a8681cc22p-2, -0x1.10b1768558ca2p-3}},
    {2, false, 2.4, 0.0, 30.0,
     {-0x1.2a66cc3b60948p-7, -0x1.0e97d64f533a7p-5, -0x1.e50681b0f23eep-3,
      -0x1.9bfc9a30ea113p-3, 0x1.e50681b0f23fp-3, 0x1.9bfc9a30ea10ep-3,
      0x1.1ceae21842de2p-5, -0x1.af8685c85048ep-5}},
    {2, false, 2.44, 7.25, 13.5,
     {-0x1.26c717efb9eb3p-2, -0x1.d55f0c1c125bcp-2, -0x1.049bbf867c3e9p-4,
      -0x1.b8283a466eaadp-3, 0x1.049bbf867c3e6p-4, 0x1.b8283a466eaaep-3,
      -0x1.e0d8674570448p-3, -0x1.bcf39232b7581p-2}},
    {2, false, 2.48, 30.0, 2.0,
     {-0x1.0805ac9ecde56p-3, -0x1.072a543134d8bp-3, 0x1.5456c5e6943c8p-2,
      0x1.aa52161c1eaadp-3, -0x1.5456c5e6943c8p-2, -0x1.aa52161c1eaadp-3,
      -0x1.15b81f3514f22p-2, -0x1.934563916c5bp-4}},
    {2, true, 2.4, 0.0, 30.0,
     {-0x1.960b209c3ff43p-3, 0x1.f5182d89aa218p-7, -0x1.3a5dd4622438cp-5,
      0x1.f10e6e728e06p-4, -0x1.3a5dd4622438cp-5, 0x1.f10e6e728e06p-4,
      -0x1.d4b4abf9c280ap-4, -0x1.cca8a985cf3fap-6}},
    {2, true, 2.44, 7.25, 13.5,
     {-0x1.5e43ba889747fp-3, -0x1.f94e1587531bp-6, 0x1.dbc9ebfb71832p-7,
      0x1.f800cfb9ec6f4p-4, 0x1.dbc9ebfb71832p-7, 0x1.f800cfb9ec6f4p-4,
      -0x1.11343ec768adbp-3, -0x1.166a967ab5165p-5}},
    {2, true, 2.48, 30.0, 2.0,
     {-0x1.ec8a7cc7dcdc4p-4, -0x1.3d0860096d214p-4, 0x1.10b0d4cf8742p-9,
      0x1.e3e201caf460dp-4, 0x1.10b0d4cf87428p-9, 0x1.e3e201caf460dp-4,
      -0x1.804c51719816ap-3, -0x1.e2900bde3a6dap-6}},
    {3, false, 2.4, 0.0, 30.0,
     {-0x1.d5e4bceddd042p-5, -0x1.c6917e3056fdbp-4, -0x1.49d0e1bd2b6p-2,
      -0x1.37c65a5183fa3p-3, 0x1.49d0e1bd2b601p-2, 0x1.37c65a5183f9cp-3,
      -0x1.defc143c5156p-7, -0x1.2a94cb54e8698p-3}},
    {3, false, 2.44, 7.25, 13.5,
     {-0x1.feefedbc90aabp-2, -0x1.bd1757e91ec12p-3, -0x1.bd30f6e410735p-3,
      -0x1.2d1ae3b80d8dcp-4, 0x1.bd30f6e410736p-3, 0x1.2d1ae3b80d8dcp-4,
      -0x1.ca71b8dd9621cp-2, -0x1.fb4260dd5b537p-3}},
    {3, false, 2.48, 30.0, 2.0,
     {-0x1.aa31ac490429ap-3, -0x1.51600d88d3df5p-3, 0x1.89713ec09529p-2,
      -0x1.f22b43408f5p-9, -0x1.89713ec09529p-2, 0x1.f22b43408f48p-9,
      -0x1.3d1471e6faccfp-2, -0x1.0951c9300166ep-4}},
    {3, true, 2.4, 0.0, 30.0,
     {-0x1.89917c63d8854p-3, 0x1.64b1664da49e9p-6, -0x1.ff6aa3c22d7d7p-6,
      0x1.d743a31a2753ep-4, -0x1.ff6aa3c22d7d5p-6, 0x1.d743a31a2753fp-4,
      -0x1.ef4ceaf4d4348p-4, -0x1.27089508f9b42p-5}},
    {3, true, 2.44, 7.25, 13.5,
     {-0x1.5bf49b305e92dp-3, -0x1.518bec33081a3p-6, 0x1.612e588a7e6fcp-9,
      0x1.90a7eb678a54dp-4, 0x1.612e588a7e6fp-9, 0x1.90a7eb678a54dp-4,
      -0x1.21c90a3bd1cdfp-3, -0x1.7a347d6666e27p-5}},
    {3, true, 2.48, 30.0, 2.0,
     {-0x1.16d61421a010dp-3, -0x1.67686866a5b15p-4, -0x1.ab417e214807p-9,
      0x1.bbb7c64dc386fp-4, -0x1.ab417e214807p-9, 0x1.bbb7c64dc386fp-4,
      -0x1.67d282960bb46p-3, -0x1.4d66a4d33d71ep-6}},
    {4, false, 0.9, 0.0, 30.0,
     {0x1.77ce878bc2888p-4, -0x1.0e55cfaebd57ap-5, 0x1.98bb2eedaf442p-4,
      -0x1.6487af3d37b26p-2, -0x1.98bb2eedaf444p-4, 0x1.6487af3d37b26p-2,
      0x1.1772275d8779ap-3, -0x1.6d7fa44fc6d5cp-7}},
    {4, false, 0.915, 7.25, 13.5,
     {0x1.d66e32d599023p-2, -0x1.96bade048d10dp-2, 0x1.425325cd986afp-3,
      -0x1.447fd90315a1p-4, -0x1.425325cd986adp-3, 0x1.447fd90315a0cp-4,
      0x1.d152318fc457p-2, -0x1.6df8fd1551633p-2}},
    {4, false, 0.93, 30.0, 2.0,
     {0x1.322dde924eea6p-3, -0x1.0808801d8e06bp-2, -0x1.2a64a5c709d45p-3,
      0x1.8ab86424ed42ep-2, 0x1.2a64a5c709d46p-3, -0x1.8ab86424ed43p-2,
      0x1.65702fd84b9b8p-4, -0x1.85afb5b21fd99p-2}},
    {4, true, 0.9, 0.0, 30.0,
     {-0x1.9c9a7b053a7f6p-3, -0x1.75c23a3d41271p-6, -0x1.c094099af8327p-6,
      0x1.16fc0caf57c83p-4, -0x1.c094099af8325p-6, 0x1.16fc0caf57c83p-4,
      -0x1.d6b5a7cbff7fcp-4, 0x1.6af0d0aa9bd33p-6}},
    {4, true, 0.915, 7.25, 13.5,
     {-0x1.48110946a51afp-3, -0x1.25097fe3af736p-5, -0x1.1ac5b953e9b49p-7,
      0x1.c470c9be557afp-4, -0x1.1ac5b953e9b45p-7, 0x1.c470c9be557afp-4,
      -0x1.2cbfbc2d8c5fp-3, -0x1.68dfbf9e2472ep-7}},
    {4, true, 0.93, 30.0, 2.0,
     {-0x1.f52c8ebfac782p-4, -0x1.d81890bd708d1p-6, -0x1.5224066c3218p-9,
      0x1.6b7903553a303p-4, -0x1.5224066c3218p-9, 0x1.6b7903553a303p-4,
      -0x1.82af314613b84p-3, -0x1.17420a7073b73p-4}},
};

constexpr SParamsGolden kSParams[] = {
    {0, false, 2.4, 2.0,
     {-0x1.06c733730c4a8p-3, 0x1.487702be9997fp-2, 0x1.bde354333ee24p-1,
      0x1.1f9d9b4edddfp-2, 0x1.bde354333ee24p-1, 0x1.1f9d9b4edddfp-2,
      -0x1.06c733730c4a9p-3, 0x1.487702be9997fp-2}},
    {0, false, 2.48, 21.0,
     {-0x1.5bb4cff6e536bp-4, 0x1.0488fa6eea589p-2, 0x1.d416d8dd73d08p-1,
      0x1.b48484ad2a4bep-3, 0x1.d416d8dd73d0cp-1, 0x1.b48484ad2a4c1p-3,
      -0x1.5bb4cff6e5367p-4, 0x1.0488fa6eea589p-2}},
    {0, true, 2.4, 2.0,
     {-0x1.798456602eea1p-3, -0x1.5dc9a0a3c9db7p-2, 0x1.a13097a643bb1p-1,
      -0x1.874e74a4977eap-2, 0x1.a13097a643bb3p-1, -0x1.874e74a4977ecp-2,
      -0x1.798456602eea1p-3, -0x1.5dc9a0a3c9db7p-2}},
    {0, true, 2.48, 21.0,
     {-0x1.cb233d8c26697p-3, -0x1.7d7f1fcca6735p-2, 0x1.8cc0ed2a33a9dp-1,
      -0x1.a87787943a676p-2, 0x1.8cc0ed2a33a9fp-1, -0x1.a87787943a677p-2,
      -0x1.cb233d8c26697p-3, -0x1.7d7f1fcca6735p-2}},
    {1, false, 2.4, 2.0,
     {-0x1.06c733730c4a8p-3, 0x1.487702be9997fp-2, 0x1.bde354333ee24p-1,
      0x1.1f9d9b4edddfp-2, 0x1.bde354333ee24p-1, 0x1.1f9d9b4edddfp-2,
      -0x1.06c733730c4a9p-3, 0x1.487702be9997fp-2}},
    {1, false, 2.48, 21.0,
     {-0x1.5bb4cff6e536bp-4, 0x1.0488fa6eea589p-2, 0x1.d416d8dd73d08p-1,
      0x1.b48484ad2a4bep-3, 0x1.d416d8dd73d0cp-1, 0x1.b48484ad2a4c1p-3,
      -0x1.5bb4cff6e5367p-4, 0x1.0488fa6eea589p-2}},
    {1, true, 2.4, 2.0,
     {-0x1.798456602eea1p-3, -0x1.5dc9a0a3c9db7p-2, 0x1.a13097a643bb1p-1,
      -0x1.874e74a4977eap-2, 0x1.a13097a643bb3p-1, -0x1.874e74a4977ecp-2,
      -0x1.798456602eea1p-3, -0x1.5dc9a0a3c9db7p-2}},
    {1, true, 2.48, 21.0,
     {-0x1.cb233d8c26697p-3, -0x1.7d7f1fcca6735p-2, 0x1.8cc0ed2a33a9dp-1,
      -0x1.a87787943a676p-2, 0x1.8cc0ed2a33a9fp-1, -0x1.a87787943a677p-2,
      -0x1.cb233d8c26697p-3, -0x1.7d7f1fcca6735p-2}},
    {2, false, 2.4, 2.0,
     {-0x1.7c6a254db8203p-2, -0x1.a9495b0762572p-2, 0x1.39ceaab2427b8p-1,
      -0x1.c42ab7481ec8bp-2, 0x1.39ceaab2427b9p-1, -0x1.c42ab7481ec8cp-2,
      -0x1.9a251356ac3e2p-2, -0x1.8bfa9a54b9225p-2}},
    {2, false, 2.48, 21.0,
     {-0x1.355568eb85967p-4, 0x1.5766205596d27p-3, 0x1.dde7d13e5b6c8p-1,
      0x1.08df9570ae00bp-3, 0x1.dde7d13e5b6cap-1, 0x1.08df9570ae00bp-3,
      -0x1.c8e43b820e668p-5, 0x1.63dfd2ef7cbbep-3}},
    {2, true, 2.4, 2.0,
     {-0x1.368636ba79177p-2, -0x1.83cc50f77fe6cp-2, 0x1.5d943e13a833cp-1,
      -0x1.a16f726ad6f0dp-2, 0x1.5d943e13a833ep-1, -0x1.a16f726ad6f0ep-2,
      -0x1.510e75487de31p-2, -0x1.6c139b3aa9fecp-2}},
    {2, true, 2.48, 21.0,
     {-0x1.ff31e933f43afp-4, 0x1.0dcf416de58eap-2, 0x1.c6ac721ade87fp-1,
      0x1.d1b93e01699e1p-3, 0x1.c6ac721ade88p-1, 0x1.d1b93e01699e2p-3,
      -0x1.8ddfe006bc53cp-4, 0x1.1883bbdd2cb82p-2}},
    {3, false, 2.4, 2.0,
     {-0x1.7c6a254db8203p-2, -0x1.a9495b0762572p-2, 0x1.39ceaab2427b8p-1,
      -0x1.c42ab7481ec8bp-2, 0x1.39ceaab2427b9p-1, -0x1.c42ab7481ec8cp-2,
      -0x1.9a251356ac3e2p-2, -0x1.8bfa9a54b9225p-2}},
    {3, false, 2.48, 21.0,
     {-0x1.355568eb85967p-4, 0x1.5766205596d27p-3, 0x1.dde7d13e5b6c8p-1,
      0x1.08df9570ae00bp-3, 0x1.dde7d13e5b6cap-1, 0x1.08df9570ae00bp-3,
      -0x1.c8e43b820e668p-5, 0x1.63dfd2ef7cbbep-3}},
    {3, true, 2.4, 2.0,
     {-0x1.368636ba79177p-2, -0x1.83cc50f77fe6cp-2, 0x1.5d943e13a833cp-1,
      -0x1.a16f726ad6f0dp-2, 0x1.5d943e13a833ep-1, -0x1.a16f726ad6f0ep-2,
      -0x1.510e75487de31p-2, -0x1.6c139b3aa9fecp-2}},
    {3, true, 2.48, 21.0,
     {-0x1.ff31e933f43afp-4, 0x1.0dcf416de58eap-2, 0x1.c6ac721ade87fp-1,
      0x1.d1b93e01699e1p-3, 0x1.c6ac721ade88p-1, 0x1.d1b93e01699e2p-3,
      -0x1.8ddfe006bc53cp-4, 0x1.1883bbdd2cb82p-2}},
    {4, false, 2.4, 2.0,
     {-0x1.06c733730c4a8p-3, 0x1.487702be9997fp-2, 0x1.bde354333ee24p-1,
      0x1.1f9d9b4edddfp-2, 0x1.bde354333ee24p-1, 0x1.1f9d9b4edddfp-2,
      -0x1.06c733730c4a9p-3, 0x1.487702be9997fp-2}},
    {4, false, 2.48, 21.0,
     {-0x1.5bb4cff6e536bp-4, 0x1.0488fa6eea589p-2, 0x1.d416d8dd73d08p-1,
      0x1.b48484ad2a4bep-3, 0x1.d416d8dd73d0cp-1, 0x1.b48484ad2a4c1p-3,
      -0x1.5bb4cff6e5367p-4, 0x1.0488fa6eea589p-2}},
    {4, true, 2.4, 2.0,
     {-0x1.798456602eea1p-3, -0x1.5dc9a0a3c9db7p-2, 0x1.a13097a643bb1p-1,
      -0x1.874e74a4977eap-2, 0x1.a13097a643bb3p-1, -0x1.874e74a4977ecp-2,
      -0x1.798456602eea1p-3, -0x1.5dc9a0a3c9db7p-2}},
    {4, true, 2.48, 21.0,
     {-0x1.cb233d8c26697p-3, -0x1.7d7f1fcca6735p-2, 0x1.8cc0ed2a33a9dp-1,
      -0x1.a87787943a676p-2, 0x1.8cc0ed2a33a9fp-1, -0x1.a87787943a677p-2,
      -0x1.cb233d8c26697p-3, -0x1.7d7f1fcca6735p-2}},
    {5, false, 2.4, 2.0,
     {-0x1.06c733730c4a8p-3, 0x1.487702be9997fp-2, 0x1.bde354333ee24p-1,
      0x1.1f9d9b4edddfp-2, 0x1.bde354333ee24p-1, 0x1.1f9d9b4edddfp-2,
      -0x1.06c733730c4a9p-3, 0x1.487702be9997fp-2}},
    {5, false, 2.48, 21.0,
     {-0x1.5bb4cff6e536bp-4, 0x1.0488fa6eea589p-2, 0x1.d416d8dd73d08p-1,
      0x1.b48484ad2a4bep-3, 0x1.d416d8dd73d0cp-1, 0x1.b48484ad2a4c1p-3,
      -0x1.5bb4cff6e5367p-4, 0x1.0488fa6eea589p-2}},
    {5, true, 2.4, 2.0,
     {-0x1.798456602eea1p-3, -0x1.5dc9a0a3c9db7p-2, 0x1.a13097a643bb1p-1,
      -0x1.874e74a4977eap-2, 0x1.a13097a643bb3p-1, -0x1.874e74a4977ecp-2,
      -0x1.798456602eea1p-3, -0x1.5dc9a0a3c9db7p-2}},
    {5, true, 2.48, 21.0,
     {-0x1.cb233d8c26697p-3, -0x1.7d7f1fcca6735p-2, 0x1.8cc0ed2a33a9dp-1,
      -0x1.a87787943a676p-2, 0x1.8cc0ed2a33a9fp-1, -0x1.a87787943a677p-2,
      -0x1.cb233d8c26697p-3, -0x1.7d7f1fcca6735p-2}},
};

/// The designs of designs.h, in the order kJones indexes them.
std::vector<RotatorStack> designs() {
  return {reference_rogers_design(), naive_fr4_design(),
          optimized_fr4_design(), prototype_fr4_design(),
          rfid_900mhz_design()};
}

void expect_bits(double actual, double golden, const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(actual),
            std::bit_cast<std::uint64_t>(golden))
      << what << ": " << std::hexfloat << actual << " vs " << golden;
}

TEST(CascadeGolden, JonesMatricesMatchRecordedBits) {
  const std::vector<RotatorStack> stacks = designs();
  for (const JonesGolden& g : kJones) {
    const RotatorStack& stack = stacks.at(static_cast<std::size_t>(g.design));
    const Frequency f = Frequency::ghz(g.ghz);
    const em::JonesMatrix j =
        g.reflective ? stack.reflection(f, Voltage{g.vx}, Voltage{g.vy})
                     : stack.transmission(f, Voltage{g.vx}, Voltage{g.vy});
    const std::string what = "design " + std::to_string(g.design) +
                             (g.reflective ? " reflection" : " transmission") +
                             " @ " + std::to_string(g.ghz) + " GHz";
    for (int r = 0; r < 2; ++r)
      for (int c = 0; c < 2; ++c) {
        const int k = 2 * (2 * r + c);
        expect_bits(j.at(r, c).real(), g.m[k], what + " re");
        expect_bits(j.at(r, c).imag(), g.m[k + 1], what + " im");
      }
  }
}

TEST(CascadeGolden, PrototypeBoardSParamsMatchRecordedBits) {
  const RotatorStack stack = prototype_fr4_design();
  for (const SParamsGolden& g : kSParams) {
    const Board& board = stack.elements().at(g.board).board;
    const microwave::SParams s =
        board.axis_sparams(Frequency::ghz(g.ghz), Voltage{g.bias}, g.y_axis);
    const std::string what = board.name() + (g.y_axis ? " y" : " x") +
                             " @ " + std::to_string(g.ghz) + " GHz";
    const microwave::Complex got[] = {s.s11, s.s12, s.s21, s.s22};
    for (int k = 0; k < 4; ++k) {
      expect_bits(got[k].real(), g.s[2 * k], what + " re");
      expect_bits(got[k].imag(), g.s[2 * k + 1], what + " im");
    }
  }
}

}  // namespace
}  // namespace llama::metasurface
