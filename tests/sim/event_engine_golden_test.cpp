// Golden digests of the event engine's outputs.
//
// GoldenTest holds the event engine to the paper's numbers within a band;
// it cannot see a change that moves a lifetime by less than the band. This
// test pins the exact outputs instead: every cell of a grid (geometry x
// spare scheme x stationary attack x line jitter x seed), a grid of
// device-fault cells, and the paper's full 1 GB Max-WE configuration are
// each reduced to one 64-bit FNV-1a digest of every LifetimeResult field
// (doubles by their bit pattern) and the decision event-log bytes, and
// compared with the tables below.
//
// Each cell runs twice: on fresh objects, and back to back with every other
// cell through one shared ExperimentWorkspace. Both must match the pinned
// digest, so the workspace's reuse of maps, spare schemes and event scratch
// stays an allocation strategy only.
//
// Re-pinning a cell is a contract change: say which cells moved and why.
// On any mismatch the test prints the freshly computed rows in the table's
// own format.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>

#include "obs/event_log.h"
#include "sim/experiment.h"

namespace nvmsec {
namespace {

struct Golden {
  const char* cell;
  std::uint64_t digest;
};

// clang-format off
constexpr Golden kGolden[] = {
    {"1024x32/freep/hotspot/j0.1/s1", 0xcbe5d7e63c18bf66ULL},
    {"1024x32/freep/hotspot/j0.1/s2", 0x758d428c79b7a9fcULL},
    {"1024x32/freep/hotspot/j0/s1", 0x687392e65452a619ULL},
    {"1024x32/freep/hotspot/j0/s2", 0x034888a5c1d56764ULL},
    {"1024x32/freep/random/j0.1/s1", 0x1e2e5ccb26c541a9ULL},
    {"1024x32/freep/random/j0.1/s2", 0xc0b67ca8e8c314a3ULL},
    {"1024x32/freep/random/j0/s1", 0x70584cecb4cde70eULL},
    {"1024x32/freep/random/j0/s2", 0x81f0b63696582b9cULL},
    {"1024x32/freep/uaa/j0.1/s1", 0x2e8b3199e3c2e702ULL},
    {"1024x32/freep/uaa/j0.1/s2", 0xefbea1282d5bf170ULL},
    {"1024x32/freep/uaa/j0/s1", 0x077f94ff81c14ad9ULL},
    {"1024x32/freep/uaa/j0/s2", 0x2467e62594e3d0dbULL},
    {"1024x32/freep/zipf/j0.1/s1", 0x15c3755203c0f19dULL},
    {"1024x32/freep/zipf/j0.1/s2", 0x8f6f224c18555668ULL},
    {"1024x32/freep/zipf/j0/s1", 0x80440a913c6b25ccULL},
    {"1024x32/freep/zipf/j0/s2", 0x40ad2511380b4ceaULL},
    {"1024x32/maxwe/hotspot/j0.1/s1", 0xd590e9a79011603fULL},
    {"1024x32/maxwe/hotspot/j0.1/s2", 0x6140b0fc7e8180c2ULL},
    {"1024x32/maxwe/hotspot/j0/s1", 0x6f0112e35611b242ULL},
    {"1024x32/maxwe/hotspot/j0/s2", 0xea6bc7a1ca1f7f30ULL},
    {"1024x32/maxwe/random/j0.1/s1", 0x20e41e7867a5e0bbULL},
    {"1024x32/maxwe/random/j0.1/s2", 0x55a7ba6efeb34a12ULL},
    {"1024x32/maxwe/random/j0/s1", 0xd5d83af81ebd29e9ULL},
    {"1024x32/maxwe/random/j0/s2", 0x29881fd2f1dcac9cULL},
    {"1024x32/maxwe/uaa/j0.1/s1", 0xcfd3cdbd47460248ULL},
    {"1024x32/maxwe/uaa/j0.1/s2", 0x08cc2b9a195081fdULL},
    {"1024x32/maxwe/uaa/j0/s1", 0xb6c3efb5a1311632ULL},
    {"1024x32/maxwe/uaa/j0/s2", 0xa1d802848b3e1445ULL},
    {"1024x32/maxwe/zipf/j0.1/s1", 0xe48620cff3cc9493ULL},
    {"1024x32/maxwe/zipf/j0.1/s2", 0xbe70772f7b0df914ULL},
    {"1024x32/maxwe/zipf/j0/s1", 0x64f82f20c17cceb0ULL},
    {"1024x32/maxwe/zipf/j0/s2", 0x919481e2b71b1a0cULL},
    {"1024x32/none/hotspot/j0.1/s1", 0xfa7ab10efa955d40ULL},
    {"1024x32/none/hotspot/j0.1/s2", 0x050b23271bd8630bULL},
    {"1024x32/none/hotspot/j0/s1", 0x42bde2ccfa5ea930ULL},
    {"1024x32/none/hotspot/j0/s2", 0xc8702465ca615cfcULL},
    {"1024x32/none/random/j0.1/s1", 0x4e8dff0f28282523ULL},
    {"1024x32/none/random/j0.1/s2", 0x2a3e16281a900cf6ULL},
    {"1024x32/none/random/j0/s1", 0x0db77497d8a16b85ULL},
    {"1024x32/none/random/j0/s2", 0x2ac4783c4348f630ULL},
    {"1024x32/none/uaa/j0.1/s1", 0xc7c27b1b0586097eULL},
    {"1024x32/none/uaa/j0.1/s2", 0xc37b90e9b67bcf3fULL},
    {"1024x32/none/uaa/j0/s1", 0xe995f9d716d453d8ULL},
    {"1024x32/none/uaa/j0/s2", 0x396d4dfb8f51cf61ULL},
    {"1024x32/none/zipf/j0.1/s1", 0x537d6b788813647eULL},
    {"1024x32/none/zipf/j0.1/s2", 0xcb1660089f84ce26ULL},
    {"1024x32/none/zipf/j0/s1", 0x2c2190009dd842d4ULL},
    {"1024x32/none/zipf/j0/s2", 0x67f2e7fa3fe6b5d3ULL},
    {"1024x32/pcd/hotspot/j0.1/s1", 0xc1823ce6efb7e396ULL},
    {"1024x32/pcd/hotspot/j0.1/s2", 0xeab90b89299f0743ULL},
    {"1024x32/pcd/hotspot/j0/s1", 0x425d456b731f8146ULL},
    {"1024x32/pcd/hotspot/j0/s2", 0xb8579d462a208999ULL},
    {"1024x32/pcd/random/j0.1/s1", 0x93a6a82fdd9445feULL},
    {"1024x32/pcd/random/j0.1/s2", 0x79952090b309f3b6ULL},
    {"1024x32/pcd/random/j0/s1", 0x8cb62e88b99aa752ULL},
    {"1024x32/pcd/random/j0/s2", 0xa72c2d55f1f591bfULL},
    {"1024x32/pcd/uaa/j0.1/s1", 0xaae6239f12b49739ULL},
    {"1024x32/pcd/uaa/j0.1/s2", 0x24d131f1cbabb5d5ULL},
    {"1024x32/pcd/uaa/j0/s1", 0xe52f0583214ccfcdULL},
    {"1024x32/pcd/uaa/j0/s2", 0xe44344f385dbf570ULL},
    {"1024x32/pcd/zipf/j0.1/s1", 0x66fa92c0f762304aULL},
    {"1024x32/pcd/zipf/j0.1/s2", 0x070106a4cd907960ULL},
    {"1024x32/pcd/zipf/j0/s1", 0xde2faf5c66226f2dULL},
    {"1024x32/pcd/zipf/j0/s2", 0xd1c46c1a709e9752ULL},
    {"1024x32/ps-worst/hotspot/j0.1/s1", 0xc411df7799e2e13fULL},
    {"1024x32/ps-worst/hotspot/j0.1/s2", 0xa31d42a508efd3f4ULL},
    {"1024x32/ps-worst/hotspot/j0/s1", 0x1a259576094aca0fULL},
    {"1024x32/ps-worst/hotspot/j0/s2", 0xd1f7c926970fad95ULL},
    {"1024x32/ps-worst/random/j0.1/s1", 0x31af01d703d7318aULL},
    {"1024x32/ps-worst/random/j0.1/s2", 0xf46ede036643e035ULL},
    {"1024x32/ps-worst/random/j0/s1", 0x6a79a107904ddea7ULL},
    {"1024x32/ps-worst/random/j0/s2", 0xcd005478554d403aULL},
    {"1024x32/ps-worst/uaa/j0.1/s1", 0xd87bc00dd25d5e85ULL},
    {"1024x32/ps-worst/uaa/j0.1/s2", 0x42b266b64ce4f1b0ULL},
    {"1024x32/ps-worst/uaa/j0/s1", 0x8f6c7d40570547beULL},
    {"1024x32/ps-worst/uaa/j0/s2", 0xcff8fb0c9d5f5305ULL},
    {"1024x32/ps-worst/zipf/j0.1/s1", 0x12a995ba1bb215f3ULL},
    {"1024x32/ps-worst/zipf/j0.1/s2", 0x72c80fd22f110bf4ULL},
    {"1024x32/ps-worst/zipf/j0/s1", 0x35179e03bb72d043ULL},
    {"1024x32/ps-worst/zipf/j0/s2", 0xc8e7e0e4aa2c8d05ULL},
    {"1024x32/ps/hotspot/j0.1/s1", 0x3b930e3fad8d180dULL},
    {"1024x32/ps/hotspot/j0.1/s2", 0x6166cd6dbf3ceb0aULL},
    {"1024x32/ps/hotspot/j0/s1", 0x79a20022bef991d6ULL},
    {"1024x32/ps/hotspot/j0/s2", 0x99a650cf4d70811eULL},
    {"1024x32/ps/random/j0.1/s1", 0x329e2a4f9fc4e1f2ULL},
    {"1024x32/ps/random/j0.1/s2", 0x4410c80ac508d933ULL},
    {"1024x32/ps/random/j0/s1", 0x015998ed9570ca99ULL},
    {"1024x32/ps/random/j0/s2", 0x02f81fa022dea996ULL},
    {"1024x32/ps/uaa/j0.1/s1", 0xacda0d6c9561d83fULL},
    {"1024x32/ps/uaa/j0.1/s2", 0x31fea9fdefaa5ae2ULL},
    {"1024x32/ps/uaa/j0/s1", 0x3969db8384a574bcULL},
    {"1024x32/ps/uaa/j0/s2", 0x14c0cd6fb842f45fULL},
    {"1024x32/ps/zipf/j0.1/s1", 0x8896546748ec723bULL},
    {"1024x32/ps/zipf/j0.1/s2", 0xf7d4933ca8e46227ULL},
    {"1024x32/ps/zipf/j0/s1", 0x17eb6e8996b68409ULL},
    {"1024x32/ps/zipf/j0/s2", 0x2319246fe5d5a021ULL},
    {"256x16/freep/hotspot/j0.1/s1", 0xe1927827096ae372ULL},
    {"256x16/freep/hotspot/j0.1/s2", 0x009bc3592a08e393ULL},
    {"256x16/freep/hotspot/j0/s1", 0xec0342e5c78d662bULL},
    {"256x16/freep/hotspot/j0/s2", 0xe388b5b13a85bf17ULL},
    {"256x16/freep/random/j0.1/s1", 0x59d25457eb5a137cULL},
    {"256x16/freep/random/j0.1/s2", 0x161538656a8caeb0ULL},
    {"256x16/freep/random/j0/s1", 0x792967117bdb3a72ULL},
    {"256x16/freep/random/j0/s2", 0x27819a8a3d5b2cc7ULL},
    {"256x16/freep/uaa/j0.1/s1", 0x57d3468e54a0d6cfULL},
    {"256x16/freep/uaa/j0.1/s2", 0xb778b63202b51a07ULL},
    {"256x16/freep/uaa/j0/s1", 0x07ae478a7543497fULL},
    {"256x16/freep/uaa/j0/s2", 0x0e030fec32d4669aULL},
    {"256x16/freep/zipf/j0.1/s1", 0x3a77e3b2efd5a4fdULL},
    {"256x16/freep/zipf/j0.1/s2", 0xb94085ab2d549d0dULL},
    {"256x16/freep/zipf/j0/s1", 0x0b88fd515570daf0ULL},
    {"256x16/freep/zipf/j0/s2", 0x7ab565fcbf15d84fULL},
    {"256x16/maxwe/hotspot/j0.1/s1", 0x556c2f796ec8ae49ULL},
    {"256x16/maxwe/hotspot/j0.1/s2", 0xe0c8dc767ea76d3bULL},
    {"256x16/maxwe/hotspot/j0/s1", 0x4789457cf8018fd9ULL},
    {"256x16/maxwe/hotspot/j0/s2", 0x0d8699e3970921bcULL},
    {"256x16/maxwe/random/j0.1/s1", 0xd3e9bac9a4944cceULL},
    {"256x16/maxwe/random/j0.1/s2", 0x1e11a29df499e75bULL},
    {"256x16/maxwe/random/j0/s1", 0xf74e36f03f63f31bULL},
    {"256x16/maxwe/random/j0/s2", 0x1b78467019f59cafULL},
    {"256x16/maxwe/uaa/j0.1/s1", 0x452f9959536f0edfULL},
    {"256x16/maxwe/uaa/j0.1/s2", 0xdf0436f359da77aeULL},
    {"256x16/maxwe/uaa/j0/s1", 0x39e79c339533fed2ULL},
    {"256x16/maxwe/uaa/j0/s2", 0x469e7fd23ccbe034ULL},
    {"256x16/maxwe/zipf/j0.1/s1", 0xb6d832616a62f707ULL},
    {"256x16/maxwe/zipf/j0.1/s2", 0x3e6dcbcb253e36b5ULL},
    {"256x16/maxwe/zipf/j0/s1", 0x2a110b66a8d2b29eULL},
    {"256x16/maxwe/zipf/j0/s2", 0x69d8d80202867336ULL},
    {"256x16/none/hotspot/j0.1/s1", 0xb80368654dcf57eeULL},
    {"256x16/none/hotspot/j0.1/s2", 0x0a3a0a674194f34aULL},
    {"256x16/none/hotspot/j0/s1", 0x51ac9a432be0d181ULL},
    {"256x16/none/hotspot/j0/s2", 0x0b87dd9bb4614971ULL},
    {"256x16/none/random/j0.1/s1", 0x5e9e0900f4bc4886ULL},
    {"256x16/none/random/j0.1/s2", 0x9a011e01288c8d58ULL},
    {"256x16/none/random/j0/s1", 0xf2231b27535031fbULL},
    {"256x16/none/random/j0/s2", 0x5027c4c17d31d93bULL},
    {"256x16/none/uaa/j0.1/s1", 0x45eb25353e7d8f21ULL},
    {"256x16/none/uaa/j0.1/s2", 0xbcb5b77e4586b2edULL},
    {"256x16/none/uaa/j0/s1", 0x3b1af76216f36c72ULL},
    {"256x16/none/uaa/j0/s2", 0x66e4016e704cda9cULL},
    {"256x16/none/zipf/j0.1/s1", 0x6d85199b42ffed3bULL},
    {"256x16/none/zipf/j0.1/s2", 0xf4a7e5646f7fc9acULL},
    {"256x16/none/zipf/j0/s1", 0xe838eaa86c2bb654ULL},
    {"256x16/none/zipf/j0/s2", 0x4433491235447570ULL},
    {"256x16/pcd/hotspot/j0.1/s1", 0xa7c4947f31dfac8fULL},
    {"256x16/pcd/hotspot/j0.1/s2", 0xaf0d8326964d1e2cULL},
    {"256x16/pcd/hotspot/j0/s1", 0xc127d6edbf4b3b67ULL},
    {"256x16/pcd/hotspot/j0/s2", 0x4925878b4adf09bfULL},
    {"256x16/pcd/random/j0.1/s1", 0xba3df73016c23951ULL},
    {"256x16/pcd/random/j0.1/s2", 0x9c4673772c711e25ULL},
    {"256x16/pcd/random/j0/s1", 0x699e475ba9ca3007ULL},
    {"256x16/pcd/random/j0/s2", 0xb9334085d6980a65ULL},
    {"256x16/pcd/uaa/j0.1/s1", 0xaf2af81f47f2d0a2ULL},
    {"256x16/pcd/uaa/j0.1/s2", 0x24b93a8792503170ULL},
    {"256x16/pcd/uaa/j0/s1", 0xc4b474d22a092a22ULL},
    {"256x16/pcd/uaa/j0/s2", 0x7402cdd59cda5e98ULL},
    {"256x16/pcd/zipf/j0.1/s1", 0x2e10190e654427c1ULL},
    {"256x16/pcd/zipf/j0.1/s2", 0x7a936f737a477509ULL},
    {"256x16/pcd/zipf/j0/s1", 0x84401e31bd53cb2aULL},
    {"256x16/pcd/zipf/j0/s2", 0x272bbdb8e053ac7aULL},
    {"256x16/ps-worst/hotspot/j0.1/s1", 0xeecd4ed16acb2d10ULL},
    {"256x16/ps-worst/hotspot/j0.1/s2", 0xd3bfa30cce998254ULL},
    {"256x16/ps-worst/hotspot/j0/s1", 0xa45c0a4fa523052fULL},
    {"256x16/ps-worst/hotspot/j0/s2", 0x6d21cf778686be1eULL},
    {"256x16/ps-worst/random/j0.1/s1", 0xc68b109490d2307bULL},
    {"256x16/ps-worst/random/j0.1/s2", 0x9d49f9bef6cfd5feULL},
    {"256x16/ps-worst/random/j0/s1", 0xbfb26ed1e1e96165ULL},
    {"256x16/ps-worst/random/j0/s2", 0x5e3d42590d9c9e31ULL},
    {"256x16/ps-worst/uaa/j0.1/s1", 0xe328ba670da853e8ULL},
    {"256x16/ps-worst/uaa/j0.1/s2", 0x4aaa0768d1feb3f7ULL},
    {"256x16/ps-worst/uaa/j0/s1", 0x663042a6ed4d5faeULL},
    {"256x16/ps-worst/uaa/j0/s2", 0x879d1620e735b06cULL},
    {"256x16/ps-worst/zipf/j0.1/s1", 0x908add5ff890a249ULL},
    {"256x16/ps-worst/zipf/j0.1/s2", 0xfd6cde569c45c58aULL},
    {"256x16/ps-worst/zipf/j0/s1", 0xd21603b004725681ULL},
    {"256x16/ps-worst/zipf/j0/s2", 0xbcf833c3a357fafdULL},
    {"256x16/ps/hotspot/j0.1/s1", 0x98918387ff820886ULL},
    {"256x16/ps/hotspot/j0.1/s2", 0x8e440c794fd4d7c3ULL},
    {"256x16/ps/hotspot/j0/s1", 0xcdb63411f4097a45ULL},
    {"256x16/ps/hotspot/j0/s2", 0x14814ee42f279f92ULL},
    {"256x16/ps/random/j0.1/s1", 0xe7ec986ca1078b63ULL},
    {"256x16/ps/random/j0.1/s2", 0x6ed136e034ec7113ULL},
    {"256x16/ps/random/j0/s1", 0x2ee1941fcdad348bULL},
    {"256x16/ps/random/j0/s2", 0x30b5885f0b8a6db8ULL},
    {"256x16/ps/uaa/j0.1/s1", 0x2ec5fb096002c2e2ULL},
    {"256x16/ps/uaa/j0.1/s2", 0x92eb50fef8847958ULL},
    {"256x16/ps/uaa/j0/s1", 0x9094533a09ef43caULL},
    {"256x16/ps/uaa/j0/s2", 0x51bad4b4c5c8ea93ULL},
    {"256x16/ps/zipf/j0.1/s1", 0x35c8e8545c09b999ULL},
    {"256x16/ps/zipf/j0.1/s2", 0x56637f7511eec680ULL},
    {"256x16/ps/zipf/j0/s1", 0xba2953e25faca56bULL},
    {"256x16/ps/zipf/j0/s2", 0x37ea8fae0b77cbe2ULL},
    {"4096x64/freep/hotspot/j0.1/s1", 0x1fe330546a1e26a0ULL},
    {"4096x64/freep/hotspot/j0.1/s2", 0xda42fe41ada125bdULL},
    {"4096x64/freep/hotspot/j0/s1", 0xd1208553dcb749dcULL},
    {"4096x64/freep/hotspot/j0/s2", 0x6bc7d1f0183b6837ULL},
    {"4096x64/freep/random/j0.1/s1", 0x2fd0a1c58f4ee282ULL},
    {"4096x64/freep/random/j0.1/s2", 0x4104da78111b3d50ULL},
    {"4096x64/freep/random/j0/s1", 0xac531e64311a04c2ULL},
    {"4096x64/freep/random/j0/s2", 0x9fd9f9361f4064eaULL},
    {"4096x64/freep/uaa/j0.1/s1", 0x744e59d00685c8d3ULL},
    {"4096x64/freep/uaa/j0.1/s2", 0xa219fff7a55594cbULL},
    {"4096x64/freep/uaa/j0/s1", 0x9903edde978f4df3ULL},
    {"4096x64/freep/uaa/j0/s2", 0xeaa022f0bf47339dULL},
    {"4096x64/freep/zipf/j0.1/s1", 0xf6a6d5e0606689d1ULL},
    {"4096x64/freep/zipf/j0.1/s2", 0xf926ae9d89ec8ef0ULL},
    {"4096x64/freep/zipf/j0/s1", 0x6dcae5c14a15ddfaULL},
    {"4096x64/freep/zipf/j0/s2", 0xcdc9b372b386542eULL},
    {"4096x64/maxwe/hotspot/j0.1/s1", 0x84c69969fc273e30ULL},
    {"4096x64/maxwe/hotspot/j0.1/s2", 0x905b56931c0ff7b2ULL},
    {"4096x64/maxwe/hotspot/j0/s1", 0x241a8c7da2f264e4ULL},
    {"4096x64/maxwe/hotspot/j0/s2", 0x2accafef250f5fb5ULL},
    {"4096x64/maxwe/random/j0.1/s1", 0x08fedb20fa87e17cULL},
    {"4096x64/maxwe/random/j0.1/s2", 0x0317ead542032626ULL},
    {"4096x64/maxwe/random/j0/s1", 0xb952e1cfd6d9dfdcULL},
    {"4096x64/maxwe/random/j0/s2", 0x04d5eb790faa3771ULL},
    {"4096x64/maxwe/uaa/j0.1/s1", 0x25f4662cbae6ca43ULL},
    {"4096x64/maxwe/uaa/j0.1/s2", 0x7290d999249db4adULL},
    {"4096x64/maxwe/uaa/j0/s1", 0x93db1c937893c257ULL},
    {"4096x64/maxwe/uaa/j0/s2", 0x8909b04f7c042074ULL},
    {"4096x64/maxwe/zipf/j0.1/s1", 0x7c97f6eb2268d9d8ULL},
    {"4096x64/maxwe/zipf/j0.1/s2", 0x3584c247717b1a5dULL},
    {"4096x64/maxwe/zipf/j0/s1", 0xc9d7a843abc2d8caULL},
    {"4096x64/maxwe/zipf/j0/s2", 0x30141646ab54b2a1ULL},
    {"4096x64/none/hotspot/j0.1/s1", 0xbed47072bdedb8acULL},
    {"4096x64/none/hotspot/j0.1/s2", 0x321f89c38e65fdcfULL},
    {"4096x64/none/hotspot/j0/s1", 0x86f291996023baaaULL},
    {"4096x64/none/hotspot/j0/s2", 0x1abca6203ee2b5beULL},
    {"4096x64/none/random/j0.1/s1", 0xe3c33699baa2d4d2ULL},
    {"4096x64/none/random/j0.1/s2", 0xcff15746f9316aacULL},
    {"4096x64/none/random/j0/s1", 0x8dba2f1726e497fbULL},
    {"4096x64/none/random/j0/s2", 0x36030ec0ab533d73ULL},
    {"4096x64/none/uaa/j0.1/s1", 0xb51fd41e5993298bULL},
    {"4096x64/none/uaa/j0.1/s2", 0xcc990dbdda6f38f5ULL},
    {"4096x64/none/uaa/j0/s1", 0x1c5a2b2d6299ef84ULL},
    {"4096x64/none/uaa/j0/s2", 0xf2eb636144acdfe0ULL},
    {"4096x64/none/zipf/j0.1/s1", 0x15e5fecdef717038ULL},
    {"4096x64/none/zipf/j0.1/s2", 0x4ed71055b812cdf2ULL},
    {"4096x64/none/zipf/j0/s1", 0x8090c3706ee48f90ULL},
    {"4096x64/none/zipf/j0/s2", 0x7b0637e3e4963b1dULL},
    {"4096x64/pcd/hotspot/j0.1/s1", 0x350fca9d34be108cULL},
    {"4096x64/pcd/hotspot/j0.1/s2", 0x53bf0edbc2e14177ULL},
    {"4096x64/pcd/hotspot/j0/s1", 0x031de29be02fb637ULL},
    {"4096x64/pcd/hotspot/j0/s2", 0x9d53feaaafed807fULL},
    {"4096x64/pcd/random/j0.1/s1", 0x310a5b92b7b4a150ULL},
    {"4096x64/pcd/random/j0.1/s2", 0x7c8de0e746e2b661ULL},
    {"4096x64/pcd/random/j0/s1", 0x421bd21eefb3f1c0ULL},
    {"4096x64/pcd/random/j0/s2", 0x59cff54748671ebdULL},
    {"4096x64/pcd/uaa/j0.1/s1", 0x71d412173284ef9bULL},
    {"4096x64/pcd/uaa/j0.1/s2", 0x01ab413d35684768ULL},
    {"4096x64/pcd/uaa/j0/s1", 0xf81139033e524ad3ULL},
    {"4096x64/pcd/uaa/j0/s2", 0xe2fca4f756757d9cULL},
    {"4096x64/pcd/zipf/j0.1/s1", 0x082667e702ac4575ULL},
    {"4096x64/pcd/zipf/j0.1/s2", 0x93accfd19734a1b8ULL},
    {"4096x64/pcd/zipf/j0/s1", 0xf641a8f9e4bf65c6ULL},
    {"4096x64/pcd/zipf/j0/s2", 0xc57b6606e33e00a8ULL},
    {"4096x64/ps-worst/hotspot/j0.1/s1", 0x68b231f9cd4602f6ULL},
    {"4096x64/ps-worst/hotspot/j0.1/s2", 0x671105b81b0dcda8ULL},
    {"4096x64/ps-worst/hotspot/j0/s1", 0x6f655c0af6d2f84dULL},
    {"4096x64/ps-worst/hotspot/j0/s2", 0x2482c3e5dcd4df98ULL},
    {"4096x64/ps-worst/random/j0.1/s1", 0x16d168e294cff420ULL},
    {"4096x64/ps-worst/random/j0.1/s2", 0x074edcaf75764376ULL},
    {"4096x64/ps-worst/random/j0/s1", 0x1c3541bca65c13d5ULL},
    {"4096x64/ps-worst/random/j0/s2", 0x0ebe91c2890caa5fULL},
    {"4096x64/ps-worst/uaa/j0.1/s1", 0x3ef8b4f8f00bf11fULL},
    {"4096x64/ps-worst/uaa/j0.1/s2", 0x883ba28a4c849c07ULL},
    {"4096x64/ps-worst/uaa/j0/s1", 0xf7731eaaaf95cc66ULL},
    {"4096x64/ps-worst/uaa/j0/s2", 0xed1a692d22c2e55cULL},
    {"4096x64/ps-worst/zipf/j0.1/s1", 0x07679e750aa1c7a1ULL},
    {"4096x64/ps-worst/zipf/j0.1/s2", 0x2f872b7c36b6194dULL},
    {"4096x64/ps-worst/zipf/j0/s1", 0x8b92a92d52a07c04ULL},
    {"4096x64/ps-worst/zipf/j0/s2", 0x15d81c88d2c76485ULL},
    {"4096x64/ps/hotspot/j0.1/s1", 0x0fd71886ae68693aULL},
    {"4096x64/ps/hotspot/j0.1/s2", 0x7c25f67005f91f35ULL},
    {"4096x64/ps/hotspot/j0/s1", 0xb9d77aa45aa2f3e6ULL},
    {"4096x64/ps/hotspot/j0/s2", 0xba1352f91ec570d7ULL},
    {"4096x64/ps/random/j0.1/s1", 0x04c98f94485ff75fULL},
    {"4096x64/ps/random/j0.1/s2", 0xcb2a1a2bd49e0f4cULL},
    {"4096x64/ps/random/j0/s1", 0x767d07054ce91d9fULL},
    {"4096x64/ps/random/j0/s2", 0x4cf6bfd51d89202dULL},
    {"4096x64/ps/uaa/j0.1/s1", 0x5eed017f5e342cccULL},
    {"4096x64/ps/uaa/j0.1/s2", 0x2edbaad3041493fbULL},
    {"4096x64/ps/uaa/j0/s1", 0xfd4940039c265194ULL},
    {"4096x64/ps/uaa/j0/s2", 0xf389a5d2c796ed6cULL},
    {"4096x64/ps/zipf/j0.1/s1", 0x1f648902f1071131ULL},
    {"4096x64/ps/zipf/j0.1/s2", 0x36f512330037678cULL},
    {"4096x64/ps/zipf/j0/s1", 0xb773592d23c277f7ULL},
    {"4096x64/ps/zipf/j0/s2", 0x2ecdba9ad3322d67ULL},
};
// clang-format on

constexpr std::uint64_t kPaperMaxWe1GbDigest = 0x6107f1864b7125e6ULL;

// Device-fault cells: stuck-at and early-death lines give the device map
// per-line values, so budgets are rounded line by line; outlier regions
// scale whole regions and keep the map region-constant.
// clang-format off
constexpr Golden kFaultGolden[] = {
    {"1024x32/freep/hotspot/early", 0xcb4b082b0709f916ULL},
    {"1024x32/freep/hotspot/outlier", 0x3ef3480976a693f9ULL},
    {"1024x32/freep/hotspot/stuck", 0xeed4778479507a5aULL},
    {"1024x32/freep/uaa/early", 0x69965ed1d7abd989ULL},
    {"1024x32/freep/uaa/outlier", 0x208d9740427848a1ULL},
    {"1024x32/freep/uaa/stuck", 0x2f74b0c780a42109ULL},
    {"1024x32/freep/zipf/early", 0xec34c81aac972909ULL},
    {"1024x32/freep/zipf/outlier", 0xd5cb1b957c0c41efULL},
    {"1024x32/freep/zipf/stuck", 0xdb158db63de4407eULL},
    {"1024x32/maxwe/hotspot/early", 0x96bf733e12ed0dbbULL},
    {"1024x32/maxwe/hotspot/outlier", 0xe7b497d20a066cb0ULL},
    {"1024x32/maxwe/hotspot/stuck", 0x517a78fefafdf256ULL},
    {"1024x32/maxwe/uaa/early", 0xf1f2fa5f70ae800dULL},
    {"1024x32/maxwe/uaa/outlier", 0x933d08607755d5e1ULL},
    {"1024x32/maxwe/uaa/stuck", 0xf0746333ad9110ebULL},
    {"1024x32/maxwe/zipf/early", 0xb7087db6f1db37faULL},
    {"1024x32/maxwe/zipf/outlier", 0xacd659eaa8e2c163ULL},
    {"1024x32/maxwe/zipf/stuck", 0xe20690b8192a160eULL},
    {"1024x32/none/hotspot/early", 0x5ceaf8781784e6c1ULL},
    {"1024x32/none/hotspot/outlier", 0x332ac61bcdf5d330ULL},
    {"1024x32/none/hotspot/stuck", 0xca94ea45fa50c544ULL},
    {"1024x32/none/uaa/early", 0x1c96e03fe5b3cb2aULL},
    {"1024x32/none/uaa/outlier", 0x8c152c9a80a27269ULL},
    {"1024x32/none/uaa/stuck", 0x552a64cb3c9226e7ULL},
    {"1024x32/none/zipf/early", 0x431340a38a969444ULL},
    {"1024x32/none/zipf/outlier", 0x2b53ad92ccf3fb93ULL},
    {"1024x32/none/zipf/stuck", 0xb1beabcdb16a3f14ULL},
    {"1024x32/ps/hotspot/early", 0xb2485356b522d732ULL},
    {"1024x32/ps/hotspot/outlier", 0x815631abf995be3eULL},
    {"1024x32/ps/hotspot/stuck", 0x6259fac5493d0c4bULL},
    {"1024x32/ps/uaa/early", 0x475f80f30364eb3cULL},
    {"1024x32/ps/uaa/outlier", 0x122f0b448070910fULL},
    {"1024x32/ps/uaa/stuck", 0xbf6dadd658ce3298ULL},
    {"1024x32/ps/zipf/early", 0xf049c3541d14137cULL},
    {"1024x32/ps/zipf/outlier", 0xdeb05ae70eb01e6bULL},
    {"1024x32/ps/zipf/stuck", 0xed00a7a650546ed2ULL},
    {"256x16/freep/hotspot/early", 0xd6959e1fcc935240ULL},
    {"256x16/freep/hotspot/outlier", 0xcdfe138577def362ULL},
    {"256x16/freep/hotspot/stuck", 0x637629d79ca06a64ULL},
    {"256x16/freep/uaa/early", 0x8d273b10540656e4ULL},
    {"256x16/freep/uaa/outlier", 0x9b733acf7bd374ffULL},
    {"256x16/freep/uaa/stuck", 0xd7a6f45dad0c96e2ULL},
    {"256x16/freep/zipf/early", 0xcc4cfce52594307aULL},
    {"256x16/freep/zipf/outlier", 0x7a9a18c9ea671cc4ULL},
    {"256x16/freep/zipf/stuck", 0x0271ced2cadfe76cULL},
    {"256x16/maxwe/hotspot/early", 0xb7237191729c5b0dULL},
    {"256x16/maxwe/hotspot/outlier", 0x6933bceaf506f6feULL},
    {"256x16/maxwe/hotspot/stuck", 0xbae85e1901ca2065ULL},
    {"256x16/maxwe/uaa/early", 0x3a7f7d54152dae75ULL},
    {"256x16/maxwe/uaa/outlier", 0x579b32ee3ba5c90aULL},
    {"256x16/maxwe/uaa/stuck", 0x318218efc312ba30ULL},
    {"256x16/maxwe/zipf/early", 0x006c61b2e60a00e7ULL},
    {"256x16/maxwe/zipf/outlier", 0xf08798e356a7f204ULL},
    {"256x16/maxwe/zipf/stuck", 0x6634981c30de4b33ULL},
    {"256x16/none/hotspot/early", 0xde022e72440a5d02ULL},
    {"256x16/none/hotspot/outlier", 0xae4f43eda7076c2dULL},
    {"256x16/none/hotspot/stuck", 0xfe444b03bcfae86aULL},
    {"256x16/none/uaa/early", 0xddda41ca29764c57ULL},
    {"256x16/none/uaa/outlier", 0x1f2669444908d1daULL},
    {"256x16/none/uaa/stuck", 0x53295016a2a0c0c0ULL},
    {"256x16/none/zipf/early", 0x0b8df67a6341b1c7ULL},
    {"256x16/none/zipf/outlier", 0x0512f7a9340d5fe6ULL},
    {"256x16/none/zipf/stuck", 0x55cb8dc848dff9a9ULL},
    {"256x16/ps/hotspot/early", 0x9bd45e9ab4827990ULL},
    {"256x16/ps/hotspot/outlier", 0xd8c794f178cc171eULL},
    {"256x16/ps/hotspot/stuck", 0x5e479f20491abab4ULL},
    {"256x16/ps/uaa/early", 0x99313fe732e15b4fULL},
    {"256x16/ps/uaa/outlier", 0x0fae6c31f8ba0d13ULL},
    {"256x16/ps/uaa/stuck", 0xdb5ecb9756d056feULL},
    {"256x16/ps/zipf/early", 0x5340d188e03167c0ULL},
    {"256x16/ps/zipf/outlier", 0x70befb3e3be5d47cULL},
    {"256x16/ps/zipf/stuck", 0x8ff907b6e47c1df5ULL},
};
// clang-format on

class Fnv1a {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  /// Length-prefixed, so adjacent strings cannot alias.
  void str(std::string_view s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_{14695981039346656037ULL};
};

/// Runs `config` (through `workspace` when non-null) and digests every
/// LifetimeResult field plus the event log it wrote; `out` receives the
/// result when non-null.
std::uint64_t run_cell(ExperimentConfig config, ExperimentWorkspace* workspace,
                       LifetimeResult* out = nullptr) {
  std::ostringstream events_out;
  EventLog events(events_out);
  config.observer.events = &events;
  const LifetimeResult r = run_experiment(config, workspace);
  events.flush();

  Fnv1a h;
  h.f64(r.user_writes);
  h.u64(r.overhead_writes);
  h.u64(r.absorbed_writes);
  h.u64(r.device_writes);
  h.f64(r.ideal_lifetime);
  h.f64(r.normalized);
  h.u64(r.line_deaths);
  h.u64(r.failed ? 1 : 0);
  h.str(r.failure_reason);
  h.f64(r.wear_gini);
  h.u64(r.windows_observed);
  h.u64(r.anomalous_windows);
  h.u64(r.alarms_raised);
  h.u64(r.windows_in_alarm);
  h.u64(r.cadence_changes);
  h.str(events_out.str());
  if (out != nullptr) *out = r;
  return h.value();
}

/// Every grid cell, keyed
/// "<lines>x<regions>/<scheme>/<attack>/j<jitter>/s<seed>".
std::map<std::string, ExperimentConfig> grid_cells() {
  std::map<std::string, ExperimentConfig> cells;
  const std::pair<std::uint64_t, std::uint64_t> geometries[] = {
      {256, 16}, {1024, 32}, {4096, 64}};
  for (const auto& [lines, regions] : geometries) {
    for (const std::string scheme :
         {"none", "pcd", "ps", "ps-worst", "freep", "maxwe"}) {
      for (const std::string attack : {"uaa", "random", "hotspot", "zipf"}) {
        for (const double jitter : {0.0, 0.1}) {
          for (const std::uint64_t seed : {1u, 2u}) {
            ExperimentConfig c;
            c.geometry = DeviceGeometry::scaled(lines, regions);
            c.endurance.endurance_at_mean = 1000.0;
            c.mode = SimulationMode::kUniformEvent;
            c.spare_scheme = scheme;
            c.attack = attack;
            c.hotspot_working_set = 8;
            c.line_jitter_sigma = jitter;
            c.seed = seed;
            cells.emplace(std::to_string(lines) + "x" +
                              std::to_string(regions) + "/" + scheme + "/" +
                              attack + (jitter > 0 ? "/j0.1" : "/j0") + "/s" +
                              std::to_string(seed),
                          c);
          }
        }
      }
    }
  }
  return cells;
}

/// Every device-fault cell, keyed
/// "<lines>x<regions>/<scheme>/<attack>/<fault>": one fault class per cell
/// on the grid's endurance, seed 1.
std::map<std::string, ExperimentConfig> fault_cells() {
  std::map<std::string, ExperimentConfig> cells;
  const std::pair<std::uint64_t, std::uint64_t> geometries[] = {{256, 16},
                                                                {1024, 32}};
  for (const auto& [lines, regions] : geometries) {
    for (const std::string scheme : {"none", "ps", "freep", "maxwe"}) {
      for (const std::string attack : {"uaa", "hotspot", "zipf"}) {
        for (const std::string fault : {"stuck", "early", "outlier"}) {
          ExperimentConfig c;
          c.geometry = DeviceGeometry::scaled(lines, regions);
          c.endurance.endurance_at_mean = 1000.0;
          c.mode = SimulationMode::kUniformEvent;
          c.spare_scheme = scheme;
          c.attack = attack;
          c.hotspot_working_set = 8;
          c.seed = 1;
          if (fault == "stuck") {
            c.fault.device.stuck_at_lines = lines / 64;
          } else if (fault == "early") {
            c.fault.device.early_death_lines = lines / 32;
            c.fault.device.early_death_fraction = 0.05;
          } else {
            c.fault.device.outlier_regions = 2;
            c.fault.device.outlier_factor = 0.3;
          }
          cells.emplace(std::to_string(lines) + "x" + std::to_string(regions) +
                            "/" + scheme + "/" + attack + "/" + fault,
                        c);
        }
      }
    }
  }
  return cells;
}

/// Compares computed digests with the pinned `table`, in both directions
/// (no stale rows, no new cells missing from the table).
void expect_pinned(const std::map<std::string, std::uint64_t>& computed,
                   std::span<const Golden> table = kGolden) {
  std::map<std::string, std::uint64_t> pinned;
  for (const Golden& g : table) pinned.emplace(g.cell, g.digest);
  bool all_match = pinned.size() == computed.size();
  for (const auto& [cell, digest] : computed) {
    const auto it = pinned.find(cell);
    if (it == pinned.end()) {
      ADD_FAILURE() << cell << ": no pinned digest";
      all_match = false;
    } else if (it->second != digest) {
      ADD_FAILURE() << cell << ": digest changed";
      all_match = false;
    }
  }
  for (const auto& [cell, digest] : pinned) {
    if (computed.count(cell) == 0) {
      ADD_FAILURE() << cell << ": pinned but not computed";
    }
  }
  if (!all_match) {
    std::string rows;
    char line[160];
    for (const auto& [cell, digest] : computed) {
      std::snprintf(line, sizeof(line), "    {\"%s\", 0x%016llxULL},\n",
                    cell.c_str(), static_cast<unsigned long long>(digest));
      rows += line;
    }
    ADD_FAILURE() << "computed rows:\n" << rows;
  }
}

TEST(EventEngineGoldenTest, Grid) {
  std::map<std::string, std::uint64_t> computed;
  for (const auto& [cell, config] : grid_cells()) {
    computed.emplace(cell, run_cell(config, nullptr));
  }
  expect_pinned(computed);
}

TEST(EventEngineGoldenTest, GridBackToBackThroughOneWorkspace) {
  ExperimentWorkspace workspace;
  std::map<std::string, std::uint64_t> computed;
  for (const auto& [cell, config] : grid_cells()) {
    computed.emplace(cell, run_cell(config, &workspace));
  }
  expect_pinned(computed);
}

TEST(EventEngineGoldenTest, DeviceFaults) {
  ExperimentWorkspace workspace;
  std::map<std::string, std::uint64_t> fresh;
  std::map<std::string, std::uint64_t> reused;
  for (const auto& [cell, config] : fault_cells()) {
    fresh.emplace(cell, run_cell(config, nullptr));
    reused.emplace(cell, run_cell(config, &workspace));
  }
  expect_pinned(fresh, kFaultGolden);
  expect_pinned(reused, kFaultGolden);
}

TEST(EventEngineGoldenTest, PaperMaxWe1Gb) {
  // The paper's 1 GB device under UAA with Max-WE, seed 42: 27.0185% after
  // 419,841 line deaths. The workspace run follows a small device, so its
  // slots are rebuilt at full size.
  ExperimentConfig c;
  c.spare_scheme = "maxwe";
  ExperimentWorkspace workspace;
  (void)run_cell(grid_cells().begin()->second, &workspace);
  for (ExperimentWorkspace* ws : {static_cast<ExperimentWorkspace*>(nullptr),
                                  &workspace}) {
    LifetimeResult r;
    EXPECT_EQ(run_cell(c, ws, &r), kPaperMaxWe1GbDigest)
        << (ws == nullptr ? "fresh" : "workspace");
    EXPECT_EQ(r.line_deaths, 419'841u);
    EXPECT_NEAR(100.0 * r.normalized, 27.0185, 5e-5);
  }
}

}  // namespace
}  // namespace nvmsec
