// Pinned outputs of the one-surface link (the two geometries of paper
// Fig. 14), as hexfloats. They were recorded from the standalone
// single-link field model that the one-surface PropagationScene replaced
// (and matched to 1e-12); test_propagation_scene.cpp holds the scene to
// them at the same bound. Every entry is for a 0 dBm transmitter at
// 2.44 GHz behind a 10 dBi directional antenna at 0 deg, facing a 10 dBi
// directional receiver.
#pragma once

namespace llama::channel::pins {

/// Received power [dBm], indexed [mode][environment][k]:
///  - mode: transmissive (0.42 m, surface at 0.21 m), then reflective
///    (0.70 m, surface 0.42 m off the LoS);
///  - environment: absorber chamber, a -55 dBm interference floor, then
///    the laboratory drawn from Rng{17};
///  - k = 0: no surface; k = 1..25: the prototype's responses on the
///    {0, 7.5, 15, 22.5, 30} V grid, vx-outer, vy-inner.
/// Receiver at 90 deg (crossed).
inline constexpr double kRx90Dbm[2][3][26] = {
    {
        {
            -0x1.054b46dd14714p+5, -0x1.3e1a10e820cc3p+5, -0x1.a4ede345c8f9cp+4,
            -0x1.66f04c41083c7p+4, -0x1.58eb0278012a6p+4, -0x1.570c5dd517d3ap+4,
            -0x1.6cb6fbfc88a3p+4, -0x1.08e64875a1b6cp+5, -0x1.e33a7467eaff7p+4,
            -0x1.91f8077cd5d5ap+4, -0x1.73e4a2c5c783p+4, -0x1.4ebe56261e869p+4,
            -0x1.86ad01c7a5fb4p+4, -0x1.0e7299ba0534cp+5, -0x1.15f0b8c7e6955p+5,
            -0x1.d9af36ff9da66p+4, -0x1.4e89ac0069a07p+4, -0x1.65bf4495eb276p+4,
            -0x1.bc7cf1c40efacp+4, -0x1.1d110c52857fbp+5, -0x1.2e4b9a3a14492p+5,
            -0x1.541f5587ebfa3p+4, -0x1.5a329db67f252p+4, -0x1.99816be082384p+4,
            -0x1.f08b533f42f2cp+4, -0x1.2b21396f03588p+5,
        },
        {
            -0x1.05178359a92b5p+5, -0x1.3d13aa5354729p+5, -0x1.a4d5dcf02f389p+4,
            -0x1.66e672eb24ap+4, -0x1.58e2f5ba347ap+4, -0x1.570487c9cbbb3p+4,
            -0x1.6cac482c56779p+4, -0x1.08ace08ea98c5p+5, -0x1.e2ff9fc7e6a4ap+4,
            -0x1.91e5bd1c71e5cp+4, -0x1.73d8c4e34b13fp+4, -0x1.4eb7620a9a25ep+4,
            -0x1.869d757531a1cp+4, -0x1.0e2f4aeafbb4cp+5, -0x1.159d4a54ba78bp+5,
            -0x1.d97bec5d921e3p+4, -0x1.4e82bd27ca537p+4, -0x1.65b5961aaea54p+4,
            -0x1.bc5b3b85c8286p+4, -0x1.1caabb423db86p+5, -0x1.2da4380767089p+5,
            -0x1.5417d22f4065ap+4, -0x1.5a2a6aad4bd32p+4, -0x1.996d09626c35dp+4,
            -0x1.f04417d2669fdp+4, -0x1.2a884aeb3616fp+5,
        },
        {
            -0x1.ff5afeb7bbbc4p+4, -0x1.3fc415a0e83d2p+5, -0x1.a2da59b15b65cp+4,
            -0x1.661adac4cfb12p+4, -0x1.5889680fbba67p+4, -0x1.56dedafe76cf6p+4,
            -0x1.6e01a1a0772fbp+4, -0x1.0beb2e5a2e0b9p+5, -0x1.e587aa2d1c35ap+4,
            -0x1.9365a283f9eb3p+4, -0x1.752605d4e4c5ap+4, -0x1.4f4c4299d182ap+4,
            -0x1.86ef225e6103ap+4, -0x1.0ecd77dff9626p+5, -0x1.1a896b5d64c58p+5,
            -0x1.de6abddfbdc74p+4, -0x1.4ec6c3d6936f1p+4, -0x1.655dca7e899ddp+4,
            -0x1.ba6eb1835bb0ap+4, -0x1.1b2fc6a472c5dp+5, -0x1.32173d9646092p+5,
            -0x1.5437b708efea8p+4, -0x1.59a716f1358bdp+4, -0x1.97827534e97b6p+4,
            -0x1.ec41256e99e1ap+4, -0x1.27b3300c0147dp+5,
        },
    },
    {
        {
            -0x1.0c6519cc60ad9p+6, -0x1.4b7b0d5e9ed8ap+5, -0x1.58574a9c510e4p+5,
            -0x1.52ed62eb93772p+5, -0x1.4c6a38e840406p+5, -0x1.4803d3978784ep+5,
            -0x1.559d9d17ef4fcp+5, -0x1.5dc09a3b096edp+5, -0x1.542716ac02ap+5,
            -0x1.4cc593969b10ep+5, -0x1.4859b2b399878p+5, -0x1.4da76449ddcp+5,
            -0x1.524e43393892dp+5, -0x1.495c72cd43bf2p+5, -0x1.42ecb15890ap+5,
            -0x1.3f1dc43420a0bp+5, -0x1.475a1e84a975fp+5, -0x1.4b56ce58bda5fp+5,
            -0x1.433a653c5372p+5, -0x1.3d51add98bd1ap+5, -0x1.39caeb0582f63p+5,
            -0x1.438b5d0d456fdp+5, -0x1.477a73dfb0fccp+5, -0x1.3fe6ea800bab8p+5,
            -0x1.3a45dc517b1dp+5, -0x1.36e1dec3f9a38p+5,
        },
        {
            -0x1.b5ebabcfdf70cp+5, -0x1.49fc04955cd7dp+5, -0x1.5631e266e7fabp+5,
            -0x1.51152fb2038e1p+5, -0x1.4ae0f9d2856b1p+5, -0x1.46a874c65cb1ap+5,
            -0x1.53a07e0ce1afap+5, -0x1.5b41da3e8bd07p+5, -0x1.523e64f0759d2p+5,
            -0x1.4b385c0bddfcap+5, -0x1.46fb05f58f1d8p+5, -0x1.4c1030f379497p+5,
            -0x1.507e3879ceb68p+5, -0x1.47f3a11d4db56p+5, -0x1.41bfdf7248e76p+5,
            -0x1.3e0fb53c8adccp+5, -0x1.46053092503cbp+5, -0x1.49d94bea84b4cp+5,
            -0x1.420afb031eb58p+5, -0x1.3c510a6355ef9p+5, -0x1.38e2baacd3704p+5,
            -0x1.42593898010f5p+5, -0x1.46244e1b3ff42p+5, -0x1.3ed2c68011db1p+5,
            -0x1.395a7b8087eddp+5, -0x1.360c1dc4fcf86p+5,
        },
        {
            -0x1.c531fc4c528e8p+5, -0x1.54748ceed873cp+5, -0x1.6448daf603518p+5,
            -0x1.5e51d723c0cp+5, -0x1.56cb636aa84c6p+5, -0x1.51c0bec7dd062p+5,
            -0x1.614019623db3bp+5, -0x1.6ade3eb8ebf36p+5, -0x1.5f1955d8f049p+5,
            -0x1.568c792c0360ep+5, -0x1.519162b7fa9a3p+5, -0x1.5837f36389acep+5,
            -0x1.5d1b98228ace9p+5, -0x1.526f2011bc128p+5, -0x1.4b29c0508074bp+5,
            -0x1.46f7b8685b11fp+5, -0x1.5100286517401p+5, -0x1.551e7790c52d6p+5,
            -0x1.4b95620ab29f4p+5, -0x1.44f64ac913b4ap+5, -0x1.4119113c70cf2p+5,
            -0x1.4cad0063f69acp+5, -0x1.50c919ee04007p+5, -0x1.47f22c8596ae8p+5,
            -0x1.41a8366f7b3f5p+5, -0x1.3df244b764de9p+5,
        },
    },
};

/// As kRx90Dbm, with the receiver at 35 deg.
inline constexpr double kRx35Dbm[2][3][26] = {
    {
        {
            -0x1.cbe7c05641381p+3, -0x1.a25d5e13dddc8p+4, -0x1.4b021f5504756p+4,
            -0x1.462d5e0f5f01cp+4, -0x1.5433c51ae39b3p+4, -0x1.64cba8d6dc40cp+4,
            -0x1.9fd14b210cef6p+4, -0x1.3f848bf46f6d6p+4, -0x1.1fc901686ae9dp+4,
            -0x1.1c697e8608665p+4, -0x1.201c88003c6abp+4, -0x1.b930f45c49f48p+4,
            -0x1.70ceae4a8284ap+4, -0x1.37df7dcf160ebp+4, -0x1.2962d8df9f767p+4,
            -0x1.26aa0ea2b1402p+4, -0x1.c5b34c3858ac2p+4, -0x1.ab3ebd1bf2179p+4,
            -0x1.576e7b7c1b741p+4, -0x1.409bfe2c41dd8p+4, -0x1.39b843c020cb4p+4,
            -0x1.ca0dcea6995bep+4, -0x1.e2beddd95acfep+4, -0x1.728f72436daa8p+4,
            -0x1.556b3e7fddbc2p+4, -0x1.4ba36f9d8524cp+4,
        },
        {
            -0x1.cbe4ac343f504p+3, -0x1.a2463672d08p+4, -0x1.4afb885e7313cp+4,
            -0x1.46273860f4cc1p+4, -0x1.542c3f8c5dc4ap+4, -0x1.64c21c0f287d3p+4,
            -0x1.9fbaf8b807439p+4, -0x1.3f7ef61116ab1p+4, -0x1.1fc577adba686p+4,
            -0x1.1c661fb4ea7c5p+4, -0x1.2018fa02613a5p+4, -0x1.b910cda898b25p+4,
            -0x1.70c354516ef9dp+4, -0x1.37da7cddecf85p+4, -0x1.295ec8f559725p+4,
            -0x1.26a626a992a18p+4, -0x1.c58ccfd3bccf5p+4, -0x1.ab246dff9d174p+4,
            -0x1.57669a5913fd2p+4, -0x1.409651a60f1aep+4, -0x1.39b320502f07bp+4,
            -0x1.c9e4d5f702fc4p+4, -0x1.e28471532e2a2p+4, -0x1.7283ce1252b16p+4,
            -0x1.556396eff3442p+4, -0x1.4b9cc9499c0b2p+4,
        },
        {
            -0x1.c9b64aaeb42e7p+3, -0x1.a1c310fd4735cp+4, -0x1.4b39d91a9166cp+4,
            -0x1.46daa78daccc8p+4, -0x1.5502f5c1ea5cp+4, -0x1.659ca78c6f314p+4,
            -0x1.a1edebb4e0e3cp+4, -0x1.40f73a72dd214p+4, -0x1.213d7efd40f36p+4,
            -0x1.1dcffeac14241p+4, -0x1.2170bb14cf46dp+4, -0x1.bb2a0ac79f6f4p+4,
            -0x1.733c82ced1d8ep+4, -0x1.39d7ef9eb016cp+4, -0x1.2b2040fb3d4cep+4,
            -0x1.283db9dd58819p+4, -0x1.c668145c96eb5p+4, -0x1.ae86838eeafafp+4,
            -0x1.59b732c6f489p+4, -0x1.42827956f1c74p+4, -0x1.3b6057ff92e6ap+4,
            -0x1.ca01fc800e95p+4, -0x1.e6ef5f1004a79p+4, -0x1.7517f6d5d0758p+4,
            -0x1.5770986fc2792p+4, -0x1.4d593cc8d5389p+4,
        },
    },
    {
        {
            -0x1.8678dcd42eaf4p+5, -0x1.2549db8994095p+5, -0x1.2e745657cbcd5p+5,
            -0x1.3740c8f7477c9p+5, -0x1.3c08265c2231ep+5, -0x1.3e254d568f7f6p+5,
            -0x1.27cda0dc06a58p+5, -0x1.32da1d14c0446p+5, -0x1.3bee1e2ca51a3p+5,
            -0x1.4015d0243206fp+5, -0x1.416cb75e06419p+5, -0x1.22f036b499312p+5,
            -0x1.2dabe2e957334p+5, -0x1.35d23fe6dffbp+5, -0x1.39379bd404856p+5,
            -0x1.3a1eaab35ffp+5, -0x1.1f76e6e4c7b29p+5, -0x1.29b35d9d745c9p+5,
            -0x1.315493866eb47p+5, -0x1.34755ef3825e5p+5, -0x1.354648c2bb2a1p+5,
            -0x1.1d5fde53ee9b7p+5, -0x1.2743269dfec32p+5, -0x1.2ea00493aeae6p+5,
            -0x1.31a81665e7e7bp+5, -0x1.3277e68c9093ap+5,
        },
        {
            -0x1.7efcd942a267cp+5, -0x1.24c86bcc8cbe3p+5, -0x1.2dcc314b7dbbp+5,
            -0x1.3668c3f7b2fccp+5, -0x1.3b10b78cca24p+5, -0x1.3d1e9315b533p+5,
            -0x1.27428d2f620dap+5, -0x1.321b85b984cc4p+5, -0x1.3af765f0efc5bp+5,
            -0x1.3f003c314e557p+5, -0x1.404c6725ed337p+5, -0x1.22772f93780eep+5,
            -0x1.2d07744d776b8p+5, -0x1.3502d9b55e0b4p+5, -0x1.38532f6724c1cp+5,
            -0x1.39344f5e2995p+5, -0x1.1f0951ba47dp+5, -0x1.29208be3ce934p+5,
            -0x1.309e119e3353cp+5, -0x1.33addc510ccf2p+5, -0x1.347a16192233ap+5,
            -0x1.1cf8a5762d2cdp+5, -0x1.26ba34c1a8d62p+5, -0x1.2df70d9cdb046p+5,
            -0x1.30efe0464f8ffp+5, -0x1.31bb615a9351p+5,
        },
        {
            -0x1.9e5d8a7d0a648p+5, -0x1.22a7fff30849cp+5, -0x1.2a882813c778cp+5,
            -0x1.32cfb6c657575p+5, -0x1.37a4e18a8d1cap+5, -0x1.3a05bf2967c73p+5,
            -0x1.26276b2414c9cp+5, -0x1.2ffaed2a9ff33p+5, -0x1.38e12cc33176dp+5,
            -0x1.3d72bda6c833bp+5, -0x1.3f4b81c0ae163p+5, -0x1.21d6c8df4de28p+5,
            -0x1.2ba1c9463ce8ap+5, -0x1.33cfb41346316p+5, -0x1.37abd27c58546p+5,
            -0x1.390aab494291p+5, -0x1.1e7d980bdb3e5p+5, -0x1.27e7b3ad6c70ep+5,
            -0x1.2f983820983d5p+5, -0x1.3325a46e81376p+5, -0x1.3460795af7a6p+5,
            -0x1.1c699037d3e03p+5, -0x1.258720f05e0dcp+5, -0x1.2cf1e5cb98214p+5,
            -0x1.305dbc562a1fp+5, -0x1.318ed1a22c1d8p+5,
        },
    },
};

/// Field at the receiver [sqrt(mW)] in the absorber chamber, receiver at
/// 90 deg, per mode: Re/Im of ex and ey with the prototype biased at
/// (5, 25) V, then the no-surface field's power [mW].
inline constexpr double kFieldAt5v25v[2][5] = {
    {0x1.a397501ee0b66p-7, 0x1.8a6f68fbec766p-6,
     -0x1.df9acd62927d7p-7, -0x1.829240434bb1ep-6,
     0x1.6328d1b9bff61p-8},
    {-0x1.2c3f90089fabfp-8, -0x1.16bcdb3057ae4p-9,
     -0x1.d7c6f765cf5bap-10, 0x1.30ac8b86cea69p-9,
     0x1.05da1a0317a53p-19},
};

/// Received power [dBm] of the transmissive link stretched to 0.8 m
/// (surface at 0.4 m), absorber chamber, receiver at 90 deg, for the 25
/// responses of kRx90Dbm.
inline constexpr double kTransmissive80cmDbm[25] = {
    -0x1.6ae0574a16e36p+5, -0x1.fe7a7009bc3f8p+4, -0x1.c07cd904fbb4ep+4,
    -0x1.b2778f3bf4a93p+4, -0x1.b098ea990b534p+4, -0x1.c64388c07c186p+4,
    -0x1.35ac8ed79ab6fp+5, -0x1.1e638095eee46p+5, -0x1.eb849440c92fdp+4,
    -0x1.cd712f89baf42p+4, -0x1.a84ae2ea12095p+4, -0x1.e0398e8b995f4p+4,
    -0x1.3b38e01bfe116p+5, -0x1.42b6ff29df37ep+5, -0x1.199de1e1c8455p+5,
    -0x1.a81638c45d233p+4, -0x1.bf4bd159dea06p+4, -0x1.0b04bf44010efp+5,
    -0x1.49d752b47dde3p+5, -0x1.5b11e09c0bbbdp+5, -0x1.adabe24bdf7aep+4,
    -0x1.b3bf2a7a72a37p+4, -0x1.f30df8a4758b1p+4, -0x1.250bf0019ac7dp+5,
    -0x1.57e77fd0faffbp+5,
};

/// Frozen-sweep received power [dBm] of the default transmissive link
/// (0.42 m, surface at 0.21 m) in the laboratory drawn from Rng{17}, after
/// set_rx_antenna(Antenna::omni_6dbi(45 deg)) on a scene built with the
/// 10 dBi receiver at 90 deg; the freeze is taken after the swap. Same 25
/// responses as kRx90Dbm. Recorded from PropagationScene itself (not the
/// retired single-link model), while the scene still derived its receive
/// side per cell.
inline constexpr double kOmni45AfterSetRxDbm[25] = {
    -0x1.f335790feab1ap+4, -0x1.8f9857d5041dcp+4, -0x1.85ef257fb329ap+4,
    -0x1.8fe5d434c668ep+4, -0x1.9cd347eb979fcp+4, -0x1.0041e7465df0ep+5,
    -0x1.a108097615e59p+4, -0x1.74a4d561e4e04p+4, -0x1.6aff67dc878cfp+4,
    -0x1.6ab16e3ee7a57p+4, -0x1.f569cb498575ap+4, -0x1.f584da79a55acp+4,
    -0x1.9ebdf7e8ce76ep+4, -0x1.859d8bb457665p+4, -0x1.7d17cbf136cbp+4,
    -0x1.eae746dc91a54p+4, -0x1.34f1f607f7118p+5, -0x1.ce90164987962p+4,
    -0x1.a741171611c1ap+4, -0x1.985e03d2c4042p+4, -0x1.e7063aeb8dee4p+4,
    -0x1.921294fe7ed45p+5, -0x1.f898842f479f6p+4, -0x1.c4b71b684690cp+4,
    -0x1.b0ca497f68c38p+4,
};

}  // namespace llama::channel::pins
