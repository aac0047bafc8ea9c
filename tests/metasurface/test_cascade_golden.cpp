// Pins the scalar Jones cascade bit for bit. The literals were recorded
// from the original per-call solver that evaluated every board two-port
// from scratch; the (f, vx, vy) overloads are now plan-then-evaluate
// wrappers over the per-frequency plans, and must reproduce those bits
// exactly. Covers both modes of every design in designs.h, hand-built
// stacks for the cascade shapes the designs lack (two different tunable
// boards, a repeated board rotated 30 deg, a tunable first element, no
// tunable element), and the per-axis S-parameters of the prototype's boards.
#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
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

/// hand_built_stacks()[design] in the layout of kJones.
constexpr JonesGolden kHandBuilt[] = {
    {0, false, 2.4, 0.0, 30.0,
     {-0x1.53eb74037d4b4p-3, -0x1.887f968d51a24p-8, -0x1.4168fe5d2f0edp-6,
      -0x1.efd8928ebf1ep-3, 0x1.4168fe5d2f0ffp-6, 0x1.efd8928ebf1dfp-3,
      0x1.6ade016044882p-2, -0x1.f7f27e7c099cep-6}},
    {0, false, 2.44, 7.25, 13.5,
     {-0x1.0b0f2714bad7cp-4, -0x1.55187f7a65b9dp-1, 0x1.b5da4f528fdfcp-5,
      -0x1.7cde2244744a4p-3, -0x1.b5da4f528fdfcp-5, 0x1.7cde2244744a3p-3,
      0x1.55ea7cd75237cp-2, -0x1.0734cc488115p-1}},
    {0, false, 2.48, 30.0, 2.0,
     {0x1.6e681e992d80cp-2, -0x1.1dbf813a2a40ap-2, 0x1.4389df813b5dep-4,
      0x1.2bf37fb1ddd69p-2, -0x1.4389df813b5dep-4, -0x1.2bf37fb1ddd6ap-2,
      -0x1.4ed314353cafcp-2, -0x1.832558c161322p-3}},
    {0, true, 2.4, 0.0, 30.0,
     {-0x1.dcd73acd5a934p-3, -0x1.f3d62da3a5cd2p-7, -0x1.f1edf38d80ff6p-7,
      0x1.2b09ecc99a79bp-4, -0x1.f1edf38d80ff6p-7, 0x1.2b09ecc99a79bp-4,
      -0x1.1a8d6fb1167e9p-3, 0x1.61589212f355ap-5}},
    {0, true, 2.44, 7.25, 13.5,
     {-0x1.7a0d4c0d4e70bp-3, -0x1.6c98da0a92812p-5, 0x1.741561b6d42a5p-7,
      0x1.67127343e709dp-4, 0x1.741561b6d42a4p-7, 0x1.67127343e709dp-4,
      -0x1.2b12f428008ap-3, -0x1.34fae155773ddp-6}},
    {0, true, 2.48, 30.0, 2.0,
     {-0x1.0c8bcc1b32204p-3, -0x1.bcb8cae26008cp-6, 0x1.63128baf8975p-8,
      0x1.3e1a7134b905p-4, 0x1.63128baf8975p-8, 0x1.3e1a7134b904fp-4,
      -0x1.c1b7f26b73816p-3, -0x1.f3a83dc538ebdp-5}},
    {1, false, 2.4, 0.0, 30.0,
     {-0x1.32be1a581d5b8p-4, -0x1.b0b7e037cb263p-3, -0x1.0e2b1350f27c8p-2,
      -0x1.2890fb405ff2fp-2, -0x1.b885e0fac7bbep-4, 0x1.6037d9e837d65p-2,
      0x1.bbb7ac70c8bf2p-3, -0x1.8180100066258p-3}},
    {1, false, 2.44, 7.25, 13.5,
     {-0x1.63d5326863effp-3, -0x1.4623b2fb12839p-1, -0x1.3b076cd4e7adp-3,
      -0x1.139cd1379b70ap-3, -0x1.57235262fb764p-4, 0x1.684ce00ddb11cp-3,
      0x1.9feea8f4722eap-4, -0x1.55c60904c87bp-1}},
    {1, false, 2.48, 30.0, 2.0,
     {0x1.088335085f0aap-2, -0x1.0fcccdb357afap-1, 0x1.fd50c95c53b3cp-3,
      0x1.d0f5932158b12p-5, 0x1.eaf559779389ep-4, -0x1.c343a68755818p-3,
      -0x1.5a6a05e18761dp-2, -0x1.0190afeeae458p-2}},
    {1, true, 2.4, 0.0, 30.0,
     {-0x1.dcd73acd5a934p-3, -0x1.f3d62da3a5cd2p-7, -0x1.f1edf38d80ff6p-7,
      0x1.2b09ecc99a79bp-4, -0x1.f1edf38d80ff6p-7, 0x1.2b09ecc99a79bp-4,
      -0x1.1a8d6fb1167e9p-3, 0x1.61589212f355ap-5}},
    {1, true, 2.44, 7.25, 13.5,
     {-0x1.7a0d4c0d4e70bp-3, -0x1.6c98da0a92812p-5, 0x1.741561b6d42a5p-7,
      0x1.67127343e709dp-4, 0x1.741561b6d42a4p-7, 0x1.67127343e709dp-4,
      -0x1.2b12f428008ap-3, -0x1.34fae155773ddp-6}},
    {1, true, 2.48, 30.0, 2.0,
     {-0x1.0c8bcc1b32204p-3, -0x1.bcb8cae26008cp-6, 0x1.63128baf8975p-8,
      0x1.3e1a7134b905p-4, 0x1.63128baf8975p-8, 0x1.3e1a7134b904fp-4,
      -0x1.c1b7f26b73816p-3, -0x1.f3a83dc538ebdp-5}},
    {2, false, 2.4, 0.0, 30.0,
     {-0x1.df80d65bd6b77p-3, -0x1.f18456fe827d9p-3, -0x1.35b26c565c052p-3,
      -0x1.62cdf4558461ap-4, -0x1.35b26c565c052p-3, -0x1.62cdf45584615p-4,
      0x1.1ce29cbc67cc4p-1, 0x1.4e29ad107fa3bp-3}},
    {2, false, 2.44, 7.25, 13.5,
     {0x1.0796e06d82e5bp-3, -0x1.57b9fa22d0fdp-1, -0x1.e603fef7aeb17p-3,
      -0x1.20ac0989596a9p-3, -0x1.e603fef7aeb16p-3, -0x1.20ac0989596a8p-3,
      0x1.439f5ad61900ep-1, -0x1.98c1b6e26daafp-2}},
    {2, false, 2.48, 30.0, 2.0,
     {0x1.60bbae927790dp-1, -0x1.06a3427541b39p-3, -0x1.a2ab4c37976e8p-3,
      -0x1.270b4583900ccp-4, -0x1.a2ab4c37976e6p-3, -0x1.270b4583900cep-4,
      -0x1.d4ea04d2e34f6p-3, -0x1.a37fe0d196902p-2}},
    {2, true, 2.4, 0.0, 30.0,
     {-0x1.14af9ab636c76p-1, -0x1.9f96703cec918p-3, 0x0p+0,
      0x0p+0, 0x0p+0, 0x0p+0,
      -0x1.b2f7a53805ee8p-2, 0x1.7d086bacb911bp-3}},
    {2, true, 2.44, 7.25, 13.5,
     {-0x1.1562321ea5652p-3, -0x1.2faad5903d38ep-3, 0x0p+0,
      0x0p+0, 0x0p+0, 0x0p+0,
      -0x1.b2556377b273bp-4, 0x1.1f25043e274e7p-6}},
    {2, true, 2.48, 30.0, 2.0,
     {-0x1.057c51d28f37bp-2, 0x1.97956bd8e9523p-4, 0x0p+0,
      0x0p+0, 0x0p+0, 0x0p+0,
      -0x1.7441a022ab802p-2, -0x1.d1eafac577bbcp-3}},
    {3, false, 2.4, 0.0, 30.0,
     {0x1.677217b3ee9cep-2, -0x1.3354f682071b9p-1, 0x1.eb1d57ededd4fp-3,
      0x1.0f602154ee343p-3, 0x1.eb1d57ededd56p-3, 0x1.0f602154ee34p-3,
      0x1.677217b3ee9cbp-2, -0x1.3354f682071bap-1}},
    {3, false, 2.44, 7.25, 13.5,
     {0x1.226ac22e91991p-2, -0x1.476430ecfecc6p-1, 0x1.035522ce53bcp-2,
      0x1.807f7d22c0946p-4, 0x1.035522ce53bcp-2, 0x1.807f7d22c093dp-4,
      0x1.226ac22e9198ep-2, -0x1.476430ecfecc6p-1}},
    {3, false, 2.48, 30.0, 2.0,
     {0x1.b1700ea7490d4p-3, -0x1.5689b6e88ccf9p-1, 0x1.09cc646047c9cp-2,
      0x1.bdad1036d7342p-5, 0x1.09cc646047c9ap-2, 0x1.bdad1036d732dp-5,
      0x1.b1700ea7490cap-3, -0x1.5689b6e88ccf8p-1}},
    {3, true, 2.4, 0.0, 30.0,
     {-0x1.604f0f26dc986p-3, -0x1.4098e39cad76ep-5, -0x1.2f9015af6452p-7,
      0x1.ac51827c9637p-4, -0x1.2f9015af6452p-7, 0x1.ac51827c9637p-4,
      -0x1.604f0f26dc986p-3, -0x1.4098e39cad772p-5}},
    {3, true, 2.44, 7.25, 13.5,
     {-0x1.6b61247d993b2p-3, -0x1.d9a53c68ef27cp-5, -0x1.3469f1a10171p-8,
      0x1.a3c2025d3f6b3p-4, -0x1.3469f1a101702p-8, 0x1.a3c2025d3f6b3p-4,
      -0x1.6b61247d993b2p-3, -0x1.d9a53c68ef27ep-5}},
    {3, true, 2.48, 30.0, 2.0,
     {-0x1.760f10c3873p-3, -0x1.33aee0efc91fap-4, -0x1.bd29f91e3404p-11,
      0x1.9e3b9bd94e705p-4, -0x1.bd29f91e34p-11, 0x1.9e3b9bd94e704p-4,
      -0x1.760f10c3873p-3, -0x1.33aee0efc91f9p-4}},
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

/// Hand-built stacks for the cascade shapes designs() does not cover, in
/// the order kHandBuilt indexes them. Boards are taken from the catalog
/// designs so the stacks need no pattern constants of their own.
std::vector<RotatorStack> hand_built_stacks() {
  const RotatorStack proto = prototype_fr4_design();
  const RotatorStack naive = naive_fr4_design();
  const Board& qwp = proto.elements().at(0).board;
  const Board& bfs = proto.elements().at(2).board;
  const Board& other_bfs = naive.elements().at(2).board;
  const common::Angle zero = common::Angle::degrees(0.0);
  const common::Angle plus45 = common::Angle::degrees(45.0);
  const common::Angle minus45 = common::Angle::degrees(-45.0);
  std::vector<RotatorStack> stacks;
  // 0: two different tunable boards back to back.
  stacks.push_back(RotatorStack{{{qwp, plus45, 6e-3, false},
                                 {bfs, zero, 7e-3, true},
                                 {other_bfs, zero, 11e-3, true},
                                 {qwp, minus45, 0.0, false}}});
  // 1: a repeated board whose second copy is rotated 30 degrees.
  stacks.push_back(
      RotatorStack{{{qwp, plus45, 6e-3, false},
                    {bfs, zero, 7e-3, true},
                    {bfs, common::Angle::degrees(30.0), 11e-3, true},
                    {qwp, minus45, 0.0, false}}});
  // 2: the first element is tunable; its repeat sits behind a static board.
  stacks.push_back(RotatorStack{{{bfs, zero, 7e-3, true},
                                 {qwp, minus45, 6e-3, false},
                                 {bfs, zero, 0.0, true}}});
  // 3: no tunable element at all.
  stacks.push_back(RotatorStack{{{qwp, plus45, 6e-3, false},
                                 {qwp, plus45, 11e-3, false},
                                 {qwp, minus45, 0.0, false}}});
  return stacks;
}

void expect_bits(double actual, double golden, const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(actual),
            std::bit_cast<std::uint64_t>(golden))
      << what << ": " << std::hexfloat << actual << " vs " << golden;
}

/// Checks every row of `table` against stacks[row.design].
void expect_jones_table(const std::vector<RotatorStack>& stacks,
                        std::span<const JonesGolden> table,
                        const std::string& label) {
  for (const JonesGolden& g : table) {
    const RotatorStack& stack = stacks.at(static_cast<std::size_t>(g.design));
    const Frequency f = Frequency::ghz(g.ghz);
    const em::JonesMatrix j =
        g.reflective ? stack.reflection(f, Voltage{g.vx}, Voltage{g.vy})
                     : stack.transmission(f, Voltage{g.vx}, Voltage{g.vy});
    const std::string what = label + " " + std::to_string(g.design) +
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

TEST(CascadeGolden, JonesMatricesMatchRecordedBits) {
  expect_jones_table(designs(), kJones, "design");
}

TEST(CascadeGolden, HandBuiltStacksMatchRecordedBits) {
  expect_jones_table(hand_built_stacks(), kHandBuilt, "hand-built");
}

/// (element index, repeats_previous) of every step of `plan`.
std::vector<std::pair<std::size_t, bool>> step_shape(
    const RotatorStack::TransmissionPlan& plan) {
  std::vector<std::pair<std::size_t, bool>> shape;
  for (const RotatorStack::TransmissionStep& step : plan.steps)
    shape.emplace_back(step.index, step.repeats_previous);
  return shape;
}

TEST(TransmissionPlan, StartsAtTheFirstTunableAndMarksRepeatedBoards) {
  using Shape = std::vector<std::pair<std::size_t, bool>>;
  const Frequency f = Frequency::ghz(2.44);
  // Prototype: the two QWPs ahead of BFS 1 fold into the prefix, and BFS 2
  // (the same board at the same rotation) reuses BFS 1's solve.
  EXPECT_EQ(step_shape(prototype_fr4_design().plan_transmission(f)),
            (Shape{{2, false}, {3, true}, {4, false}, {5, false}}));
  const std::vector<RotatorStack> stacks = hand_built_stacks();
  // Two different tunable boards: each is solved.
  EXPECT_EQ(step_shape(stacks[0].plan_transmission(f)),
            (Shape{{1, false}, {2, false}, {3, false}}));
  // Rotation is applied per step, so a rotated copy still repeats.
  EXPECT_EQ(step_shape(stacks[1].plan_transmission(f)),
            (Shape{{1, false}, {2, true}, {3, false}}));
  // Empty prefix; the repeat looks past the static board in between.
  const RotatorStack::TransmissionPlan first_tunable =
      stacks[2].plan_transmission(f);
  EXPECT_EQ(step_shape(first_tunable),
            (Shape{{0, false}, {1, false}, {2, true}}));
  for (int r = 0; r < 2; ++r)
    for (int c = 0; c < 2; ++c)
      EXPECT_EQ(first_tunable.prefix.at(r, c),
                em::JonesMatrix::identity().at(r, c));
  // No tunable element: the whole stack is the prefix.
  EXPECT_TRUE(stacks[3].plan_transmission(f).steps.empty());
}

TEST(ReflectionPlan, FrontFaceReusesTheTargetOnlyWhenTheFirstIsTunable) {
  const Frequency f = Frequency::ghz(2.44);
  // Prototype: a static QWP faces the wave; its reflection is precomputed.
  const RotatorStack::ReflectionPlan proto =
      prototype_fr4_design().plan_reflection(f);
  EXPECT_FALSE(proto.front_is_target);
  EXPECT_EQ(proto.target_index, 2u);
  // Hand-built stack 2: the tunable first element is the deep target too.
  const RotatorStack::ReflectionPlan first_tunable =
      hand_built_stacks()[2].plan_reflection(f);
  EXPECT_TRUE(first_tunable.front_is_target);
  EXPECT_EQ(first_tunable.target_index, 0u);
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
