// Golden digests of the stochastic engine's outputs.
//
// FastPathEquivalenceTest compares the batched engine with the per-write
// engine *of the same build*; it cannot see a change that moves both modes
// the same way. This test pins each mode's absolute outputs instead: every
// cell of the equivalence grid (attack x wear leveler x spare scheme, with
// ps-worst added, x fastpath on/off) plus its DRAM-buffer, metadata-fault,
// device-fault, snapshot and checkpoint cells is reduced to one 64-bit
// FNV-1a digest of
//   * every LifetimeResult field (doubles by their bit pattern),
//   * the decision event-log bytes,
//   * the wear-snapshot series (snapshot cells), and
//   * the engine state held by the final checkpoint (checkpointing cells),
// and compared with the table below.
//
// Re-pinning a cell is a contract change: say which cells moved and why.
// On any mismatch the test prints the freshly computed rows for its group
// in the table's own format. The one known soft spot is PCD under the
// count-vector path (wl none, fastpath, zipf/random/hotspot8): PCD's
// resolve() re-homes a line lazily from its own RNG, so those cells move
// whenever the engine changes *when* it resolves an entry.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>

#include "obs/event_log.h"
#include "obs/snapshot.h"
#include "sim/experiment.h"
#include "sim/journal.h"

namespace nvmsec {
namespace {

struct Golden {
  const char* cell;
  std::uint64_t digest;
};

// clang-format off
constexpr Golden kGolden[] = {
    {"uaa/agebased/freep/fast", 0x31feb087d68d61aeULL},
    {"uaa/agebased/freep/slow", 0x31feb087d68d61aeULL},
    {"uaa/agebased/maxwe/fast", 0x69e74593d5389118ULL},
    {"uaa/agebased/maxwe/slow", 0x69e74593d5389118ULL},
    {"uaa/agebased/none/fast", 0x562b3dd678434ad0ULL},
    {"uaa/agebased/none/slow", 0x562b3dd678434ad0ULL},
    {"uaa/agebased/pcd/fast", 0x12da09df7760ad49ULL},
    {"uaa/agebased/pcd/slow", 0x12da09df7760ad49ULL},
    {"uaa/agebased/ps-worst/fast", 0xb17f21de180a27c8ULL},
    {"uaa/agebased/ps-worst/slow", 0xb17f21de180a27c8ULL},
    {"uaa/agebased/ps/fast", 0x747e3720bb4032d3ULL},
    {"uaa/agebased/ps/slow", 0x747e3720bb4032d3ULL},
    {"uaa/bwl/freep/fast", 0xc9d4c46aab5d2e30ULL},
    {"uaa/bwl/freep/slow", 0xc9d4c46aab5d2e30ULL},
    {"uaa/bwl/maxwe/fast", 0xc22b9ed6661afd43ULL},
    {"uaa/bwl/maxwe/slow", 0xc22b9ed6661afd43ULL},
    {"uaa/bwl/none/fast", 0x3181c8bf7ac9d7e4ULL},
    {"uaa/bwl/none/slow", 0x3181c8bf7ac9d7e4ULL},
    {"uaa/bwl/pcd/fast", 0x0074b145a294e78fULL},
    {"uaa/bwl/pcd/slow", 0x0074b145a294e78fULL},
    {"uaa/bwl/ps-worst/fast", 0xb4c476b1da36bc2cULL},
    {"uaa/bwl/ps-worst/slow", 0xb4c476b1da36bc2cULL},
    {"uaa/bwl/ps/fast", 0x66bb92740ad9c5aeULL},
    {"uaa/bwl/ps/slow", 0x66bb92740ad9c5aeULL},
    {"uaa/none/freep/fast", 0xa4326623de3e13daULL},
    {"uaa/none/freep/slow", 0xa4326623de3e13daULL},
    {"uaa/none/maxwe/fast", 0x93713cba63ebe6b5ULL},
    {"uaa/none/maxwe/slow", 0x93713cba63ebe6b5ULL},
    {"uaa/none/none/fast", 0xa3962ff87eefbbf4ULL},
    {"uaa/none/none/slow", 0xa3962ff87eefbbf4ULL},
    {"uaa/none/pcd/fast", 0xf386146b4586d3c5ULL},
    {"uaa/none/pcd/slow", 0xf386146b4586d3c5ULL},
    {"uaa/none/ps-worst/fast", 0x27cd82484a08d6dfULL},
    {"uaa/none/ps-worst/slow", 0x27cd82484a08d6dfULL},
    {"uaa/none/ps/fast", 0xbe89daf93d4edd6fULL},
    {"uaa/none/ps/slow", 0xbe89daf93d4edd6fULL},
    {"uaa/pcms/freep/fast", 0x9d2e0b2f4212a2abULL},
    {"uaa/pcms/freep/slow", 0x9d2e0b2f4212a2abULL},
    {"uaa/pcms/maxwe/fast", 0x42de764d4c9c2fc9ULL},
    {"uaa/pcms/maxwe/slow", 0x42de764d4c9c2fc9ULL},
    {"uaa/pcms/none/fast", 0xc92a7fb12340915eULL},
    {"uaa/pcms/none/slow", 0xc92a7fb12340915eULL},
    {"uaa/pcms/pcd/fast", 0x0d4d9a76747171bfULL},
    {"uaa/pcms/pcd/slow", 0x0d4d9a76747171bfULL},
    {"uaa/pcms/ps-worst/fast", 0x707d64decbd56d80ULL},
    {"uaa/pcms/ps-worst/slow", 0x707d64decbd56d80ULL},
    {"uaa/pcms/ps/fast", 0xce18d913f6b4b318ULL},
    {"uaa/pcms/ps/slow", 0xce18d913f6b4b318ULL},
    {"uaa/startgap/freep/fast", 0x54aaa190ef482d36ULL},
    {"uaa/startgap/freep/slow", 0x54aaa190ef482d36ULL},
    {"uaa/startgap/maxwe/fast", 0xf51ea76b48f6e9feULL},
    {"uaa/startgap/maxwe/slow", 0xf51ea76b48f6e9feULL},
    {"uaa/startgap/none/fast", 0x855a4303e4c5470aULL},
    {"uaa/startgap/none/slow", 0x855a4303e4c5470aULL},
    {"uaa/startgap/pcd/fast", 0xb3b99ee0afeb1fc8ULL},
    {"uaa/startgap/pcd/slow", 0xb3b99ee0afeb1fc8ULL},
    {"uaa/startgap/ps-worst/fast", 0x46236c2a58fd83f8ULL},
    {"uaa/startgap/ps-worst/slow", 0x46236c2a58fd83f8ULL},
    {"uaa/startgap/ps/fast", 0x287236816a6067dfULL},
    {"uaa/startgap/ps/slow", 0x287236816a6067dfULL},
    {"uaa/tlsr/freep/fast", 0xd9375daa8979d1beULL},
    {"uaa/tlsr/freep/slow", 0xd9375daa8979d1beULL},
    {"uaa/tlsr/maxwe/fast", 0x98243030c90831b6ULL},
    {"uaa/tlsr/maxwe/slow", 0x98243030c90831b6ULL},
    {"uaa/tlsr/none/fast", 0x662b299a1e3a1020ULL},
    {"uaa/tlsr/none/slow", 0x662b299a1e3a1020ULL},
    {"uaa/tlsr/pcd/fast", 0x6169f75869ffaaecULL},
    {"uaa/tlsr/pcd/slow", 0x6169f75869ffaaecULL},
    {"uaa/tlsr/ps-worst/fast", 0x720a5096b30cc7ffULL},
    {"uaa/tlsr/ps-worst/slow", 0x720a5096b30cc7ffULL},
    {"uaa/tlsr/ps/fast", 0x4b8bc88e8776ff3eULL},
    {"uaa/tlsr/ps/slow", 0x4b8bc88e8776ff3eULL},
    {"uaa/twl/freep/fast", 0x956a550f1de735c8ULL},
    {"uaa/twl/freep/slow", 0x956a550f1de735c8ULL},
    {"uaa/twl/maxwe/fast", 0x0310e3ba28daab1dULL},
    {"uaa/twl/maxwe/slow", 0x0310e3ba28daab1dULL},
    {"uaa/twl/none/fast", 0xf5c2a8c314e72c2bULL},
    {"uaa/twl/none/slow", 0xf5c2a8c314e72c2bULL},
    {"uaa/twl/pcd/fast", 0xa5019c90ceae75eeULL},
    {"uaa/twl/pcd/slow", 0xa5019c90ceae75eeULL},
    {"uaa/twl/ps-worst/fast", 0x9807c5c71ffc72f3ULL},
    {"uaa/twl/ps-worst/slow", 0x9807c5c71ffc72f3ULL},
    {"uaa/twl/ps/fast", 0xf4af9539c2942f2dULL},
    {"uaa/twl/ps/slow", 0xf4af9539c2942f2dULL},
    {"uaa/wawl/freep/fast", 0x42c5a323723208f5ULL},
    {"uaa/wawl/freep/slow", 0x42c5a323723208f5ULL},
    {"uaa/wawl/maxwe/fast", 0x2537a20446de054aULL},
    {"uaa/wawl/maxwe/slow", 0x2537a20446de054aULL},
    {"uaa/wawl/none/fast", 0xc9b934fa07d74b6cULL},
    {"uaa/wawl/none/slow", 0xc9b934fa07d74b6cULL},
    {"uaa/wawl/pcd/fast", 0x241ed13afbd2e14aULL},
    {"uaa/wawl/pcd/slow", 0x241ed13afbd2e14aULL},
    {"uaa/wawl/ps-worst/fast", 0xa4f9acc93d19b20bULL},
    {"uaa/wawl/ps-worst/slow", 0xa4f9acc93d19b20bULL},
    {"uaa/wawl/ps/fast", 0xf71750ecb3c3ee47ULL},
    {"uaa/wawl/ps/slow", 0xf71750ecb3c3ee47ULL},
    {"bpa/agebased/freep/fast", 0xa88c74e93e8cfa13ULL},
    {"bpa/agebased/freep/slow", 0xa88c74e93e8cfa13ULL},
    {"bpa/agebased/maxwe/fast", 0x54d29205e77155ccULL},
    {"bpa/agebased/maxwe/slow", 0x54d29205e77155ccULL},
    {"bpa/agebased/none/fast", 0x3b3444c693b6a859ULL},
    {"bpa/agebased/none/slow", 0x3b3444c693b6a859ULL},
    {"bpa/agebased/pcd/fast", 0xf00857a0b8d08a57ULL},
    {"bpa/agebased/pcd/slow", 0xf00857a0b8d08a57ULL},
    {"bpa/agebased/ps-worst/fast", 0xc612c3598b7aa895ULL},
    {"bpa/agebased/ps-worst/slow", 0xc612c3598b7aa895ULL},
    {"bpa/agebased/ps/fast", 0x960ec81ec7cc3f10ULL},
    {"bpa/agebased/ps/slow", 0x960ec81ec7cc3f10ULL},
    {"bpa/bwl/freep/fast", 0xdfc4300967195e41ULL},
    {"bpa/bwl/freep/slow", 0xdfc4300967195e41ULL},
    {"bpa/bwl/maxwe/fast", 0x883dfdfa01564c06ULL},
    {"bpa/bwl/maxwe/slow", 0x883dfdfa01564c06ULL},
    {"bpa/bwl/none/fast", 0x3098b52604ddcdf4ULL},
    {"bpa/bwl/none/slow", 0x3098b52604ddcdf4ULL},
    {"bpa/bwl/pcd/fast", 0x8f959ffd0984c490ULL},
    {"bpa/bwl/pcd/slow", 0x8f959ffd0984c490ULL},
    {"bpa/bwl/ps-worst/fast", 0xe3a3e993e49bc8eaULL},
    {"bpa/bwl/ps-worst/slow", 0xe3a3e993e49bc8eaULL},
    {"bpa/bwl/ps/fast", 0x26efff690ab8d0ceULL},
    {"bpa/bwl/ps/slow", 0x26efff690ab8d0ceULL},
    {"bpa/none/freep/fast", 0x5f22a21a6b4e3838ULL},
    {"bpa/none/freep/slow", 0x5f22a21a6b4e3838ULL},
    {"bpa/none/maxwe/fast", 0x52e8860417bcd0c2ULL},
    {"bpa/none/maxwe/slow", 0x52e8860417bcd0c2ULL},
    {"bpa/none/none/fast", 0xf4280c7b67825f1bULL},
    {"bpa/none/none/slow", 0xf4280c7b67825f1bULL},
    {"bpa/none/pcd/fast", 0xcfba56a0530820bbULL},
    {"bpa/none/pcd/slow", 0xcfba56a0530820bbULL},
    {"bpa/none/ps-worst/fast", 0x2b82af40e4656cb7ULL},
    {"bpa/none/ps-worst/slow", 0x2b82af40e4656cb7ULL},
    {"bpa/none/ps/fast", 0xbc26040540549e7cULL},
    {"bpa/none/ps/slow", 0xbc26040540549e7cULL},
    {"bpa/pcms/freep/fast", 0xea56aa3caedc4676ULL},
    {"bpa/pcms/freep/slow", 0xea56aa3caedc4676ULL},
    {"bpa/pcms/maxwe/fast", 0xa27bc5dee7f0eb74ULL},
    {"bpa/pcms/maxwe/slow", 0xa27bc5dee7f0eb74ULL},
    {"bpa/pcms/none/fast", 0x5067548937f0e93cULL},
    {"bpa/pcms/none/slow", 0x5067548937f0e93cULL},
    {"bpa/pcms/pcd/fast", 0x71b3632aee670a06ULL},
    {"bpa/pcms/pcd/slow", 0x71b3632aee670a06ULL},
    {"bpa/pcms/ps-worst/fast", 0x9ca7b5f69a236bdcULL},
    {"bpa/pcms/ps-worst/slow", 0x9ca7b5f69a236bdcULL},
    {"bpa/pcms/ps/fast", 0xde455309f3f3ff4aULL},
    {"bpa/pcms/ps/slow", 0xde455309f3f3ff4aULL},
    {"bpa/startgap/freep/fast", 0xb52e8c163d2c8c5fULL},
    {"bpa/startgap/freep/slow", 0xb52e8c163d2c8c5fULL},
    {"bpa/startgap/maxwe/fast", 0xd46e0a4ed5c8bd77ULL},
    {"bpa/startgap/maxwe/slow", 0xd46e0a4ed5c8bd77ULL},
    {"bpa/startgap/none/fast", 0xfd6c361cd2e760a8ULL},
    {"bpa/startgap/none/slow", 0xfd6c361cd2e760a8ULL},
    {"bpa/startgap/pcd/fast", 0x63138c272fd2899fULL},
    {"bpa/startgap/pcd/slow", 0x63138c272fd2899fULL},
    {"bpa/startgap/ps-worst/fast", 0x58bf9d9867291a95ULL},
    {"bpa/startgap/ps-worst/slow", 0x58bf9d9867291a95ULL},
    {"bpa/startgap/ps/fast", 0x92173c4d9671b74bULL},
    {"bpa/startgap/ps/slow", 0x92173c4d9671b74bULL},
    {"bpa/tlsr/freep/fast", 0xffed32b11a5a8204ULL},
    {"bpa/tlsr/freep/slow", 0xffed32b11a5a8204ULL},
    {"bpa/tlsr/maxwe/fast", 0x80add8e9a7bd393fULL},
    {"bpa/tlsr/maxwe/slow", 0x80add8e9a7bd393fULL},
    {"bpa/tlsr/none/fast", 0x73b61f06aaf00af7ULL},
    {"bpa/tlsr/none/slow", 0x73b61f06aaf00af7ULL},
    {"bpa/tlsr/pcd/fast", 0xe59da8c2606324b0ULL},
    {"bpa/tlsr/pcd/slow", 0xe59da8c2606324b0ULL},
    {"bpa/tlsr/ps-worst/fast", 0x8aea5ee0aa9c425cULL},
    {"bpa/tlsr/ps-worst/slow", 0x8aea5ee0aa9c425cULL},
    {"bpa/tlsr/ps/fast", 0x9c0f3c175e92f7e3ULL},
    {"bpa/tlsr/ps/slow", 0x9c0f3c175e92f7e3ULL},
    {"bpa/twl/freep/fast", 0x74a29091addd3030ULL},
    {"bpa/twl/freep/slow", 0x74a29091addd3030ULL},
    {"bpa/twl/maxwe/fast", 0xb70b88136cfdc664ULL},
    {"bpa/twl/maxwe/slow", 0xb70b88136cfdc664ULL},
    {"bpa/twl/none/fast", 0xf957d8d7c7e0dcecULL},
    {"bpa/twl/none/slow", 0xf957d8d7c7e0dcecULL},
    {"bpa/twl/pcd/fast", 0x412e67a4b8c2b7a2ULL},
    {"bpa/twl/pcd/slow", 0x412e67a4b8c2b7a2ULL},
    {"bpa/twl/ps-worst/fast", 0x7fabe7a81477d5b2ULL},
    {"bpa/twl/ps-worst/slow", 0x7fabe7a81477d5b2ULL},
    {"bpa/twl/ps/fast", 0xb9d115ea9a0d698eULL},
    {"bpa/twl/ps/slow", 0xb9d115ea9a0d698eULL},
    {"bpa/wawl/freep/fast", 0x4a454471943e8fd0ULL},
    {"bpa/wawl/freep/slow", 0x4a454471943e8fd0ULL},
    {"bpa/wawl/maxwe/fast", 0xe12d396dc2abfd2dULL},
    {"bpa/wawl/maxwe/slow", 0xe12d396dc2abfd2dULL},
    {"bpa/wawl/none/fast", 0x4973e62eeb0d840dULL},
    {"bpa/wawl/none/slow", 0x4973e62eeb0d840dULL},
    {"bpa/wawl/pcd/fast", 0x20d4dc7624962981ULL},
    {"bpa/wawl/pcd/slow", 0x20d4dc7624962981ULL},
    {"bpa/wawl/ps-worst/fast", 0xaebd53f0c8aaa275ULL},
    {"bpa/wawl/ps-worst/slow", 0xaebd53f0c8aaa275ULL},
    {"bpa/wawl/ps/fast", 0x29022a92d6249a9bULL},
    {"bpa/wawl/ps/slow", 0x29022a92d6249a9bULL},
    {"zipf/agebased/freep/fast", 0xde2bf188fac3bdc6ULL},
    {"zipf/agebased/freep/slow", 0xde2bf188fac3bdc6ULL},
    {"zipf/agebased/maxwe/fast", 0xb54b4f5c465efe63ULL},
    {"zipf/agebased/maxwe/slow", 0xb54b4f5c465efe63ULL},
    {"zipf/agebased/none/fast", 0x3b6911adb7b0ea17ULL},
    {"zipf/agebased/none/slow", 0x3b6911adb7b0ea17ULL},
    {"zipf/agebased/pcd/fast", 0x724464e7859f6d33ULL},
    {"zipf/agebased/pcd/slow", 0x724464e7859f6d33ULL},
    {"zipf/agebased/ps-worst/fast", 0x04aab9d681750a0eULL},
    {"zipf/agebased/ps-worst/slow", 0x04aab9d681750a0eULL},
    {"zipf/agebased/ps/fast", 0xf4adb7e12f3fe473ULL},
    {"zipf/agebased/ps/slow", 0xf4adb7e12f3fe473ULL},
    {"zipf/bwl/freep/fast", 0xa7aeb51af4c8bfb9ULL},
    {"zipf/bwl/freep/slow", 0xa7aeb51af4c8bfb9ULL},
    {"zipf/bwl/maxwe/fast", 0x8040b05417286d32ULL},
    {"zipf/bwl/maxwe/slow", 0x8040b05417286d32ULL},
    {"zipf/bwl/none/fast", 0xbd4da553a5c24246ULL},
    {"zipf/bwl/none/slow", 0xbd4da553a5c24246ULL},
    {"zipf/bwl/pcd/fast", 0xb14c066d168747dcULL},
    {"zipf/bwl/pcd/slow", 0xb14c066d168747dcULL},
    {"zipf/bwl/ps-worst/fast", 0x01a21f6a25a9a03bULL},
    {"zipf/bwl/ps-worst/slow", 0x01a21f6a25a9a03bULL},
    {"zipf/bwl/ps/fast", 0x0a01e6e232943913ULL},
    {"zipf/bwl/ps/slow", 0x0a01e6e232943913ULL},
    {"zipf/none/freep/fast", 0x9abfc5063156e892ULL},
    {"zipf/none/freep/slow", 0x9abfc5063156e892ULL},
    {"zipf/none/maxwe/fast", 0x951b9c09cfabc64bULL},
    {"zipf/none/maxwe/slow", 0xd463e7a578ea1e22ULL},
    {"zipf/none/none/fast", 0xe24056be360bb60dULL},
    {"zipf/none/none/slow", 0x4fa4c946f4d1fddaULL},
    {"zipf/none/pcd/fast", 0x84d608d8e34b6ed7ULL},
    {"zipf/none/pcd/slow", 0x1c7837ab9ceae5e8ULL},
    {"zipf/none/ps-worst/fast", 0xeb9343c7bb62432eULL},
    {"zipf/none/ps-worst/slow", 0x4829cc884aeaf06bULL},
    {"zipf/none/ps/fast", 0x4e77ea665314465aULL},
    {"zipf/none/ps/slow", 0x29182be4d55f6719ULL},
    {"zipf/pcms/freep/fast", 0xe8f3c1b1ca28f51dULL},
    {"zipf/pcms/freep/slow", 0xe8f3c1b1ca28f51dULL},
    {"zipf/pcms/maxwe/fast", 0xf29af6dc8493b4dfULL},
    {"zipf/pcms/maxwe/slow", 0xf29af6dc8493b4dfULL},
    {"zipf/pcms/none/fast", 0xb914eab910a08dafULL},
    {"zipf/pcms/none/slow", 0xb914eab910a08dafULL},
    {"zipf/pcms/pcd/fast", 0xfb1dbe69d64bc724ULL},
    {"zipf/pcms/pcd/slow", 0xfb1dbe69d64bc724ULL},
    {"zipf/pcms/ps-worst/fast", 0x6d95bd1198064367ULL},
    {"zipf/pcms/ps-worst/slow", 0x6d95bd1198064367ULL},
    {"zipf/pcms/ps/fast", 0x09593db53a76900cULL},
    {"zipf/pcms/ps/slow", 0x09593db53a76900cULL},
    {"zipf/startgap/freep/fast", 0x72193d2c356b84feULL},
    {"zipf/startgap/freep/slow", 0x72193d2c356b84feULL},
    {"zipf/startgap/maxwe/fast", 0x9ac21f8c04e63801ULL},
    {"zipf/startgap/maxwe/slow", 0x9ac21f8c04e63801ULL},
    {"zipf/startgap/none/fast", 0x586a794cfe441606ULL},
    {"zipf/startgap/none/slow", 0x586a794cfe441606ULL},
    {"zipf/startgap/pcd/fast", 0xaba5abf04d52e2d4ULL},
    {"zipf/startgap/pcd/slow", 0xaba5abf04d52e2d4ULL},
    {"zipf/startgap/ps-worst/fast", 0xe764ad9f1caf24faULL},
    {"zipf/startgap/ps-worst/slow", 0xe764ad9f1caf24faULL},
    {"zipf/startgap/ps/fast", 0x15a2024d28128a06ULL},
    {"zipf/startgap/ps/slow", 0x15a2024d28128a06ULL},
    {"zipf/tlsr/freep/fast", 0x0c10e9cc1ff1b9a2ULL},
    {"zipf/tlsr/freep/slow", 0x0c10e9cc1ff1b9a2ULL},
    {"zipf/tlsr/maxwe/fast", 0xa4774a426caa5d61ULL},
    {"zipf/tlsr/maxwe/slow", 0xa4774a426caa5d61ULL},
    {"zipf/tlsr/none/fast", 0x87f712faf528a3deULL},
    {"zipf/tlsr/none/slow", 0x87f712faf528a3deULL},
    {"zipf/tlsr/pcd/fast", 0xa4d3decaf039db32ULL},
    {"zipf/tlsr/pcd/slow", 0xa4d3decaf039db32ULL},
    {"zipf/tlsr/ps-worst/fast", 0x2f2a519f5860c549ULL},
    {"zipf/tlsr/ps-worst/slow", 0x2f2a519f5860c549ULL},
    {"zipf/tlsr/ps/fast", 0xb47a16ebcfaad60aULL},
    {"zipf/tlsr/ps/slow", 0xb47a16ebcfaad60aULL},
    {"zipf/twl/freep/fast", 0xe423d4d4064c7130ULL},
    {"zipf/twl/freep/slow", 0xe423d4d4064c7130ULL},
    {"zipf/twl/maxwe/fast", 0xb3502a8529979094ULL},
    {"zipf/twl/maxwe/slow", 0xb3502a8529979094ULL},
    {"zipf/twl/none/fast", 0x8353af47ec9ba45cULL},
    {"zipf/twl/none/slow", 0x8353af47ec9ba45cULL},
    {"zipf/twl/pcd/fast", 0x2793894871486de3ULL},
    {"zipf/twl/pcd/slow", 0x2793894871486de3ULL},
    {"zipf/twl/ps-worst/fast", 0x77198859066e25d7ULL},
    {"zipf/twl/ps-worst/slow", 0x77198859066e25d7ULL},
    {"zipf/twl/ps/fast", 0x3709571f72e04496ULL},
    {"zipf/twl/ps/slow", 0x3709571f72e04496ULL},
    {"zipf/wawl/freep/fast", 0x13e6d7f435f7362fULL},
    {"zipf/wawl/freep/slow", 0x13e6d7f435f7362fULL},
    {"zipf/wawl/maxwe/fast", 0xdd5e6c7509c4355bULL},
    {"zipf/wawl/maxwe/slow", 0xdd5e6c7509c4355bULL},
    {"zipf/wawl/none/fast", 0xe9b919e060720d1dULL},
    {"zipf/wawl/none/slow", 0xe9b919e060720d1dULL},
    {"zipf/wawl/pcd/fast", 0x5b02c17baadd23e0ULL},
    {"zipf/wawl/pcd/slow", 0x5b02c17baadd23e0ULL},
    {"zipf/wawl/ps-worst/fast", 0x800dd3b433d5c7f9ULL},
    {"zipf/wawl/ps-worst/slow", 0x800dd3b433d5c7f9ULL},
    {"zipf/wawl/ps/fast", 0x6121968661e6eaceULL},
    {"zipf/wawl/ps/slow", 0x6121968661e6eaceULL},
    {"random/agebased/freep/fast", 0xf668ca11ef662b61ULL},
    {"random/agebased/freep/slow", 0xf668ca11ef662b61ULL},
    {"random/agebased/maxwe/fast", 0x0fab10c884f1f213ULL},
    {"random/agebased/maxwe/slow", 0x0fab10c884f1f213ULL},
    {"random/agebased/none/fast", 0x7b92294d987914f5ULL},
    {"random/agebased/none/slow", 0x7b92294d987914f5ULL},
    {"random/agebased/pcd/fast", 0xad28a9cd2ba1c7bcULL},
    {"random/agebased/pcd/slow", 0xad28a9cd2ba1c7bcULL},
    {"random/agebased/ps-worst/fast", 0x2c2be387e67189ccULL},
    {"random/agebased/ps-worst/slow", 0x2c2be387e67189ccULL},
    {"random/agebased/ps/fast", 0xaac5eff9cc95feaeULL},
    {"random/agebased/ps/slow", 0xaac5eff9cc95feaeULL},
    {"random/bwl/freep/fast", 0xe8852c4bdc4b88c1ULL},
    {"random/bwl/freep/slow", 0xe8852c4bdc4b88c1ULL},
    {"random/bwl/maxwe/fast", 0x19fd86a6267bcf51ULL},
    {"random/bwl/maxwe/slow", 0x19fd86a6267bcf51ULL},
    {"random/bwl/none/fast", 0x379cc56115b6ea77ULL},
    {"random/bwl/none/slow", 0x379cc56115b6ea77ULL},
    {"random/bwl/pcd/fast", 0xb0e0415e9821b5a4ULL},
    {"random/bwl/pcd/slow", 0xb0e0415e9821b5a4ULL},
    {"random/bwl/ps-worst/fast", 0xeb7f48358fd1ea26ULL},
    {"random/bwl/ps-worst/slow", 0xeb7f48358fd1ea26ULL},
    {"random/bwl/ps/fast", 0xb9f9c5b64e0c5d0eULL},
    {"random/bwl/ps/slow", 0xb9f9c5b64e0c5d0eULL},
    {"random/none/freep/fast", 0xf650de647646ae9fULL},
    {"random/none/freep/slow", 0xf650de647646ae9fULL},
    {"random/none/maxwe/fast", 0x508edee0c80176b4ULL},
    {"random/none/maxwe/slow", 0x9564fb2382be66b8ULL},
    {"random/none/none/fast", 0xe552204e5b9e7ee1ULL},
    {"random/none/none/slow", 0xdd6bd431dd9a14b0ULL},
    {"random/none/pcd/fast", 0xbbaff0694a42aec0ULL},
    {"random/none/pcd/slow", 0x9d79c6f4cdae21acULL},
    {"random/none/ps-worst/fast", 0xbf597e5d58b1ecc7ULL},
    {"random/none/ps-worst/slow", 0x23ceceb1fc713184ULL},
    {"random/none/ps/fast", 0x64778daa9276a5bbULL},
    {"random/none/ps/slow", 0xb020108f80373063ULL},
    {"random/pcms/freep/fast", 0x73d93710599b80bfULL},
    {"random/pcms/freep/slow", 0x73d93710599b80bfULL},
    {"random/pcms/maxwe/fast", 0x2c2591df32181d8bULL},
    {"random/pcms/maxwe/slow", 0x2c2591df32181d8bULL},
    {"random/pcms/none/fast", 0xb7a520dbad2aaca0ULL},
    {"random/pcms/none/slow", 0xb7a520dbad2aaca0ULL},
    {"random/pcms/pcd/fast", 0x1cf66b6f4e4ea9a7ULL},
    {"random/pcms/pcd/slow", 0x1cf66b6f4e4ea9a7ULL},
    {"random/pcms/ps-worst/fast", 0x3745243de0ac830fULL},
    {"random/pcms/ps-worst/slow", 0x3745243de0ac830fULL},
    {"random/pcms/ps/fast", 0xf6dd663a91934825ULL},
    {"random/pcms/ps/slow", 0xf6dd663a91934825ULL},
    {"random/startgap/freep/fast", 0x1dd572c8e22ef8c7ULL},
    {"random/startgap/freep/slow", 0x1dd572c8e22ef8c7ULL},
    {"random/startgap/maxwe/fast", 0x278c67084cb1b8a5ULL},
    {"random/startgap/maxwe/slow", 0x278c67084cb1b8a5ULL},
    {"random/startgap/none/fast", 0x4cf79eaebc6e1e34ULL},
    {"random/startgap/none/slow", 0x4cf79eaebc6e1e34ULL},
    {"random/startgap/pcd/fast", 0x57f4e6e0cbd91898ULL},
    {"random/startgap/pcd/slow", 0x57f4e6e0cbd91898ULL},
    {"random/startgap/ps-worst/fast", 0x9319410450371381ULL},
    {"random/startgap/ps-worst/slow", 0x9319410450371381ULL},
    {"random/startgap/ps/fast", 0xbf922b1166efb3a7ULL},
    {"random/startgap/ps/slow", 0xbf922b1166efb3a7ULL},
    {"random/tlsr/freep/fast", 0x659cbc24371f78d0ULL},
    {"random/tlsr/freep/slow", 0x659cbc24371f78d0ULL},
    {"random/tlsr/maxwe/fast", 0xb55e7ebaf3b0605dULL},
    {"random/tlsr/maxwe/slow", 0xb55e7ebaf3b0605dULL},
    {"random/tlsr/none/fast", 0x3fe26a35028cbf4dULL},
    {"random/tlsr/none/slow", 0x3fe26a35028cbf4dULL},
    {"random/tlsr/pcd/fast", 0x427ff45997d79667ULL},
    {"random/tlsr/pcd/slow", 0x427ff45997d79667ULL},
    {"random/tlsr/ps-worst/fast", 0xda6bef53573cad86ULL},
    {"random/tlsr/ps-worst/slow", 0xda6bef53573cad86ULL},
    {"random/tlsr/ps/fast", 0x8fcc7dfb4c87b1b7ULL},
    {"random/tlsr/ps/slow", 0x8fcc7dfb4c87b1b7ULL},
    {"random/twl/freep/fast", 0x7e0cd2e0346a82c5ULL},
    {"random/twl/freep/slow", 0x7e0cd2e0346a82c5ULL},
    {"random/twl/maxwe/fast", 0xaf5b75d794cc9462ULL},
    {"random/twl/maxwe/slow", 0xaf5b75d794cc9462ULL},
    {"random/twl/none/fast", 0xb1ae09c40daebf67ULL},
    {"random/twl/none/slow", 0xb1ae09c40daebf67ULL},
    {"random/twl/pcd/fast", 0x1b5e4ccda30f0b9aULL},
    {"random/twl/pcd/slow", 0x1b5e4ccda30f0b9aULL},
    {"random/twl/ps-worst/fast", 0x02c38a01c9c41749ULL},
    {"random/twl/ps-worst/slow", 0x02c38a01c9c41749ULL},
    {"random/twl/ps/fast", 0xb884d5fa39ca13feULL},
    {"random/twl/ps/slow", 0xb884d5fa39ca13feULL},
    {"random/wawl/freep/fast", 0x6618246551f8b7bdULL},
    {"random/wawl/freep/slow", 0x6618246551f8b7bdULL},
    {"random/wawl/maxwe/fast", 0x6ab5ca669b95a7eeULL},
    {"random/wawl/maxwe/slow", 0x6ab5ca669b95a7eeULL},
    {"random/wawl/none/fast", 0x39afe72aca5b306aULL},
    {"random/wawl/none/slow", 0x39afe72aca5b306aULL},
    {"random/wawl/pcd/fast", 0x174dc022f4550ae9ULL},
    {"random/wawl/pcd/slow", 0x174dc022f4550ae9ULL},
    {"random/wawl/ps-worst/fast", 0x874a603afa1a25a0ULL},
    {"random/wawl/ps-worst/slow", 0x874a603afa1a25a0ULL},
    {"random/wawl/ps/fast", 0xd880a0b525809408ULL},
    {"random/wawl/ps/slow", 0xd880a0b525809408ULL},
    {"hotspot/agebased/freep/fast", 0xe358904fd0ea7148ULL},
    {"hotspot/agebased/freep/slow", 0xe358904fd0ea7148ULL},
    {"hotspot/agebased/maxwe/fast", 0xbc87b0843bfe7b03ULL},
    {"hotspot/agebased/maxwe/slow", 0xbc87b0843bfe7b03ULL},
    {"hotspot/agebased/none/fast", 0x646df1520d340abbULL},
    {"hotspot/agebased/none/slow", 0x646df1520d340abbULL},
    {"hotspot/agebased/pcd/fast", 0x422c4f40bd7b0a7dULL},
    {"hotspot/agebased/pcd/slow", 0x422c4f40bd7b0a7dULL},
    {"hotspot/agebased/ps-worst/fast", 0x760a8cecd1cce7d2ULL},
    {"hotspot/agebased/ps-worst/slow", 0x760a8cecd1cce7d2ULL},
    {"hotspot/agebased/ps/fast", 0xdb7ad18d43b8254bULL},
    {"hotspot/agebased/ps/slow", 0xdb7ad18d43b8254bULL},
    {"hotspot/bwl/freep/fast", 0xe36bdcd4d727979cULL},
    {"hotspot/bwl/freep/slow", 0xe36bdcd4d727979cULL},
    {"hotspot/bwl/maxwe/fast", 0x0cbde75b54a55fc7ULL},
    {"hotspot/bwl/maxwe/slow", 0x0cbde75b54a55fc7ULL},
    {"hotspot/bwl/none/fast", 0x9fca317fcca61c11ULL},
    {"hotspot/bwl/none/slow", 0x9fca317fcca61c11ULL},
    {"hotspot/bwl/pcd/fast", 0x0c181889439996f9ULL},
    {"hotspot/bwl/pcd/slow", 0x0c181889439996f9ULL},
    {"hotspot/bwl/ps-worst/fast", 0xc3bd24740e569180ULL},
    {"hotspot/bwl/ps-worst/slow", 0xc3bd24740e569180ULL},
    {"hotspot/bwl/ps/fast", 0x5839c9656fafef56ULL},
    {"hotspot/bwl/ps/slow", 0x5839c9656fafef56ULL},
    {"hotspot/none/freep/fast", 0x774b6e44caba150fULL},
    {"hotspot/none/freep/slow", 0x774b6e44caba150fULL},
    {"hotspot/none/maxwe/fast", 0x2fa8f748d415cf1eULL},
    {"hotspot/none/maxwe/slow", 0x2fa8f748d415cf1eULL},
    {"hotspot/none/none/fast", 0x1bf804bb1978804cULL},
    {"hotspot/none/none/slow", 0x1bf804bb1978804cULL},
    {"hotspot/none/pcd/fast", 0xc592863d5fbc34b9ULL},
    {"hotspot/none/pcd/slow", 0xc592863d5fbc34b9ULL},
    {"hotspot/none/ps-worst/fast", 0x3f56cf11cdd7b981ULL},
    {"hotspot/none/ps-worst/slow", 0x3f56cf11cdd7b981ULL},
    {"hotspot/none/ps/fast", 0x2c5e29b2535702adULL},
    {"hotspot/none/ps/slow", 0x2c5e29b2535702adULL},
    {"hotspot/pcms/freep/fast", 0xa77bfc71501692afULL},
    {"hotspot/pcms/freep/slow", 0xa77bfc71501692afULL},
    {"hotspot/pcms/maxwe/fast", 0xd821dc760bee5229ULL},
    {"hotspot/pcms/maxwe/slow", 0xd821dc760bee5229ULL},
    {"hotspot/pcms/none/fast", 0x909c47305114811eULL},
    {"hotspot/pcms/none/slow", 0x909c47305114811eULL},
    {"hotspot/pcms/pcd/fast", 0xe0efe47db155e831ULL},
    {"hotspot/pcms/pcd/slow", 0xe0efe47db155e831ULL},
    {"hotspot/pcms/ps-worst/fast", 0xf98a19a7f19e0564ULL},
    {"hotspot/pcms/ps-worst/slow", 0xf98a19a7f19e0564ULL},
    {"hotspot/pcms/ps/fast", 0xe77b2e525a79aa58ULL},
    {"hotspot/pcms/ps/slow", 0xe77b2e525a79aa58ULL},
    {"hotspot/startgap/freep/fast", 0x412808319e4164b7ULL},
    {"hotspot/startgap/freep/slow", 0x412808319e4164b7ULL},
    {"hotspot/startgap/maxwe/fast", 0x73accca94937e928ULL},
    {"hotspot/startgap/maxwe/slow", 0x73accca94937e928ULL},
    {"hotspot/startgap/none/fast", 0xe5f5d48dbfca6619ULL},
    {"hotspot/startgap/none/slow", 0xe5f5d48dbfca6619ULL},
    {"hotspot/startgap/pcd/fast", 0x4110ceb656ad1e78ULL},
    {"hotspot/startgap/pcd/slow", 0x4110ceb656ad1e78ULL},
    {"hotspot/startgap/ps-worst/fast", 0xba6952f3f7f99fe9ULL},
    {"hotspot/startgap/ps-worst/slow", 0xba6952f3f7f99fe9ULL},
    {"hotspot/startgap/ps/fast", 0x681f1ed9554f0c7aULL},
    {"hotspot/startgap/ps/slow", 0x681f1ed9554f0c7aULL},
    {"hotspot/tlsr/freep/fast", 0x23a20e5bdaa21400ULL},
    {"hotspot/tlsr/freep/slow", 0x23a20e5bdaa21400ULL},
    {"hotspot/tlsr/maxwe/fast", 0x83cdf8f008402bf2ULL},
    {"hotspot/tlsr/maxwe/slow", 0x83cdf8f008402bf2ULL},
    {"hotspot/tlsr/none/fast", 0xa4d3229ce601ad04ULL},
    {"hotspot/tlsr/none/slow", 0xa4d3229ce601ad04ULL},
    {"hotspot/tlsr/pcd/fast", 0x208ca4e5e1854fdcULL},
    {"hotspot/tlsr/pcd/slow", 0x208ca4e5e1854fdcULL},
    {"hotspot/tlsr/ps-worst/fast", 0x8f510338f7534f80ULL},
    {"hotspot/tlsr/ps-worst/slow", 0x8f510338f7534f80ULL},
    {"hotspot/tlsr/ps/fast", 0xd74935c1b2c0055aULL},
    {"hotspot/tlsr/ps/slow", 0xd74935c1b2c0055aULL},
    {"hotspot/twl/freep/fast", 0xbcfd5405271c7488ULL},
    {"hotspot/twl/freep/slow", 0xbcfd5405271c7488ULL},
    {"hotspot/twl/maxwe/fast", 0x6d72bc4742dc8caaULL},
    {"hotspot/twl/maxwe/slow", 0x6d72bc4742dc8caaULL},
    {"hotspot/twl/none/fast", 0x9affd648cd89bde4ULL},
    {"hotspot/twl/none/slow", 0x9affd648cd89bde4ULL},
    {"hotspot/twl/pcd/fast", 0x2128232c880f7bbbULL},
    {"hotspot/twl/pcd/slow", 0x2128232c880f7bbbULL},
    {"hotspot/twl/ps-worst/fast", 0x6d2f3d0fe089dddfULL},
    {"hotspot/twl/ps-worst/slow", 0x6d2f3d0fe089dddfULL},
    {"hotspot/twl/ps/fast", 0xdb734aa134985e03ULL},
    {"hotspot/twl/ps/slow", 0xdb734aa134985e03ULL},
    {"hotspot/wawl/freep/fast", 0x409661ffb61182bfULL},
    {"hotspot/wawl/freep/slow", 0x409661ffb61182bfULL},
    {"hotspot/wawl/maxwe/fast", 0xa0c25bf6e8bf0534ULL},
    {"hotspot/wawl/maxwe/slow", 0xa0c25bf6e8bf0534ULL},
    {"hotspot/wawl/none/fast", 0x15575bd887a28effULL},
    {"hotspot/wawl/none/slow", 0x15575bd887a28effULL},
    {"hotspot/wawl/pcd/fast", 0x360c133bb076e9a4ULL},
    {"hotspot/wawl/pcd/slow", 0x360c133bb076e9a4ULL},
    {"hotspot/wawl/ps-worst/fast", 0x7aa10731ad7c4161ULL},
    {"hotspot/wawl/ps-worst/slow", 0x7aa10731ad7c4161ULL},
    {"hotspot/wawl/ps/fast", 0x1f38af7947170968ULL},
    {"hotspot/wawl/ps/slow", 0x1f38af7947170968ULL},
    {"hotspot8/agebased/freep/fast", 0xbcca65643697f5d0ULL},
    {"hotspot8/agebased/freep/slow", 0xbcca65643697f5d0ULL},
    {"hotspot8/agebased/maxwe/fast", 0x942a5eb6c735b2e5ULL},
    {"hotspot8/agebased/maxwe/slow", 0x942a5eb6c735b2e5ULL},
    {"hotspot8/agebased/none/fast", 0x54bc4f8126409b27ULL},
    {"hotspot8/agebased/none/slow", 0x54bc4f8126409b27ULL},
    {"hotspot8/agebased/pcd/fast", 0xb43e16175abb628cULL},
    {"hotspot8/agebased/pcd/slow", 0xb43e16175abb628cULL},
    {"hotspot8/agebased/ps-worst/fast", 0xdf8b79052733a6f8ULL},
    {"hotspot8/agebased/ps-worst/slow", 0xdf8b79052733a6f8ULL},
    {"hotspot8/agebased/ps/fast", 0x0c3dc8c99b52ced2ULL},
    {"hotspot8/agebased/ps/slow", 0x0c3dc8c99b52ced2ULL},
    {"hotspot8/bwl/freep/fast", 0x8844837779a81cd4ULL},
    {"hotspot8/bwl/freep/slow", 0x8844837779a81cd4ULL},
    {"hotspot8/bwl/maxwe/fast", 0x317c686741d432aeULL},
    {"hotspot8/bwl/maxwe/slow", 0x317c686741d432aeULL},
    {"hotspot8/bwl/none/fast", 0x47c94fc38b4feb75ULL},
    {"hotspot8/bwl/none/slow", 0x47c94fc38b4feb75ULL},
    {"hotspot8/bwl/pcd/fast", 0x54c77c9abb48a90aULL},
    {"hotspot8/bwl/pcd/slow", 0x54c77c9abb48a90aULL},
    {"hotspot8/bwl/ps-worst/fast", 0xeab32c9e05e18535ULL},
    {"hotspot8/bwl/ps-worst/slow", 0xeab32c9e05e18535ULL},
    {"hotspot8/bwl/ps/fast", 0x318612d7d64fb057ULL},
    {"hotspot8/bwl/ps/slow", 0x318612d7d64fb057ULL},
    {"hotspot8/none/freep/fast", 0x2080ed8ffdd66b10ULL},
    {"hotspot8/none/freep/slow", 0x2080ed8ffdd66b10ULL},
    {"hotspot8/none/maxwe/fast", 0x756be829ce95e62fULL},
    {"hotspot8/none/maxwe/slow", 0x3120282f43cf07acULL},
    {"hotspot8/none/none/fast", 0xcc7b050b36019c66ULL},
    {"hotspot8/none/none/slow", 0xbe607e095e7dacc6ULL},
    {"hotspot8/none/pcd/fast", 0xcb87f266365ce65aULL},
    {"hotspot8/none/pcd/slow", 0x1708edbbcb25a197ULL},
    {"hotspot8/none/ps-worst/fast", 0x71a1f2bb016e406fULL},
    {"hotspot8/none/ps-worst/slow", 0xb33c48b954e6bd4eULL},
    {"hotspot8/none/ps/fast", 0x03f0a2ccdceec7efULL},
    {"hotspot8/none/ps/slow", 0x9dd619ac077e08a9ULL},
    {"hotspot8/pcms/freep/fast", 0x37bea0bf51b8db49ULL},
    {"hotspot8/pcms/freep/slow", 0x37bea0bf51b8db49ULL},
    {"hotspot8/pcms/maxwe/fast", 0x87f7f4f7f3c3ecdeULL},
    {"hotspot8/pcms/maxwe/slow", 0x87f7f4f7f3c3ecdeULL},
    {"hotspot8/pcms/none/fast", 0xd77aefe858ab798dULL},
    {"hotspot8/pcms/none/slow", 0xd77aefe858ab798dULL},
    {"hotspot8/pcms/pcd/fast", 0xd4682a32cd67c308ULL},
    {"hotspot8/pcms/pcd/slow", 0xd4682a32cd67c308ULL},
    {"hotspot8/pcms/ps-worst/fast", 0x4c543b65ad25a790ULL},
    {"hotspot8/pcms/ps-worst/slow", 0x4c543b65ad25a790ULL},
    {"hotspot8/pcms/ps/fast", 0xfd0137925cadc6f0ULL},
    {"hotspot8/pcms/ps/slow", 0xfd0137925cadc6f0ULL},
    {"hotspot8/startgap/freep/fast", 0x08a76cd36711d2f2ULL},
    {"hotspot8/startgap/freep/slow", 0x08a76cd36711d2f2ULL},
    {"hotspot8/startgap/maxwe/fast", 0x9c46204dd843ff9aULL},
    {"hotspot8/startgap/maxwe/slow", 0x9c46204dd843ff9aULL},
    {"hotspot8/startgap/none/fast", 0x7df6d4c73fcdd125ULL},
    {"hotspot8/startgap/none/slow", 0x7df6d4c73fcdd125ULL},
    {"hotspot8/startgap/pcd/fast", 0xfe7c578c1d554002ULL},
    {"hotspot8/startgap/pcd/slow", 0xfe7c578c1d554002ULL},
    {"hotspot8/startgap/ps-worst/fast", 0x360d6fdcf499412dULL},
    {"hotspot8/startgap/ps-worst/slow", 0x360d6fdcf499412dULL},
    {"hotspot8/startgap/ps/fast", 0x69ff3ff362465135ULL},
    {"hotspot8/startgap/ps/slow", 0x69ff3ff362465135ULL},
    {"hotspot8/tlsr/freep/fast", 0x6a09717aab75fa69ULL},
    {"hotspot8/tlsr/freep/slow", 0x6a09717aab75fa69ULL},
    {"hotspot8/tlsr/maxwe/fast", 0xbe5e375ee64ca0c2ULL},
    {"hotspot8/tlsr/maxwe/slow", 0xbe5e375ee64ca0c2ULL},
    {"hotspot8/tlsr/none/fast", 0x6354afe89c308e1dULL},
    {"hotspot8/tlsr/none/slow", 0x6354afe89c308e1dULL},
    {"hotspot8/tlsr/pcd/fast", 0x9937313aae7dfb41ULL},
    {"hotspot8/tlsr/pcd/slow", 0x9937313aae7dfb41ULL},
    {"hotspot8/tlsr/ps-worst/fast", 0xcc089bdb674e8e2dULL},
    {"hotspot8/tlsr/ps-worst/slow", 0xcc089bdb674e8e2dULL},
    {"hotspot8/tlsr/ps/fast", 0x3b5fdd9e229717ceULL},
    {"hotspot8/tlsr/ps/slow", 0x3b5fdd9e229717ceULL},
    {"hotspot8/twl/freep/fast", 0xb0b361bbd38e24d6ULL},
    {"hotspot8/twl/freep/slow", 0xb0b361bbd38e24d6ULL},
    {"hotspot8/twl/maxwe/fast", 0xdfbfcec73bdaa364ULL},
    {"hotspot8/twl/maxwe/slow", 0xdfbfcec73bdaa364ULL},
    {"hotspot8/twl/none/fast", 0x2a02d173db90283eULL},
    {"hotspot8/twl/none/slow", 0x2a02d173db90283eULL},
    {"hotspot8/twl/pcd/fast", 0x77ad44b816446971ULL},
    {"hotspot8/twl/pcd/slow", 0x77ad44b816446971ULL},
    {"hotspot8/twl/ps-worst/fast", 0xd8db83cd161c10adULL},
    {"hotspot8/twl/ps-worst/slow", 0xd8db83cd161c10adULL},
    {"hotspot8/twl/ps/fast", 0xa5571d7a84db3ad0ULL},
    {"hotspot8/twl/ps/slow", 0xa5571d7a84db3ad0ULL},
    {"hotspot8/wawl/freep/fast", 0xb337355f24218683ULL},
    {"hotspot8/wawl/freep/slow", 0xb337355f24218683ULL},
    {"hotspot8/wawl/maxwe/fast", 0x2bf9dd25635adf48ULL},
    {"hotspot8/wawl/maxwe/slow", 0x2bf9dd25635adf48ULL},
    {"hotspot8/wawl/none/fast", 0xfb8b7bed00d4bcfcULL},
    {"hotspot8/wawl/none/slow", 0xfb8b7bed00d4bcfcULL},
    {"hotspot8/wawl/pcd/fast", 0xe631de6582dffa42ULL},
    {"hotspot8/wawl/pcd/slow", 0xe631de6582dffa42ULL},
    {"hotspot8/wawl/ps-worst/fast", 0xf4b3e96f890ee0b2ULL},
    {"hotspot8/wawl/ps-worst/slow", 0xf4b3e96f890ee0b2ULL},
    {"hotspot8/wawl/ps/fast", 0x79414582e979cf96ULL},
    {"hotspot8/wawl/ps/slow", 0x79414582e979cf96ULL},
    {"side/checkpoint-uaa/fast", 0xad6ce50a8d063855ULL},
    {"side/checkpoint-uaa/slow", 0xad6ce50a8d063855ULL},
    {"side/checkpoint-zipf/fast", 0x9f950dbc8e7642bbULL},
    {"side/checkpoint-zipf/slow", 0x15dcb7c0ff6f2621ULL},
    {"side/device-faults/fast", 0x21a94916c5e438dcULL},
    {"side/device-faults/slow", 0x21a94916c5e438dcULL},
    {"side/dram-buffer/fast", 0x2fee882c038649dfULL},
    {"side/dram-buffer/slow", 0x2fee882c038649dfULL},
    {"side/metadata-faults/fast", 0xd7ed65f39534a74eULL},
    {"side/metadata-faults/slow", 0xd7ed65f39534a74eULL},
    {"side/snapshots-bpa/fast", 0x119fa7a4f9bf1c93ULL},
    {"side/snapshots-bpa/slow", 0x119fa7a4f9bf1c93ULL},
    {"side/snapshots-uaa/fast", 0x3aa91ddf28c98368ULL},
    {"side/snapshots-uaa/slow", 0x3aa91ddf28c98368ULL},
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

void digest_result(Fnv1a& h, const LifetimeResult& r) {
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
}

/// The equivalence grid's base configuration.
ExperimentConfig base_config() {
  ExperimentConfig config = scaled_stochastic_config(256, 16, 300.0);
  config.spare_fraction = 0.25;
  config.swr_fraction = 0.5;
  config.max_user_writes = 120'000;
  return config;
}

/// Runs one cell and digests everything it produced. `snapshot_interval`
/// attaches a snapshot emitter; a non-zero `checkpoint_interval` writes
/// checkpoints to a per-cell temp file whose final engine state is
/// digested (the record payload, so the digest pins the state and not the
/// file framing around it).
std::uint64_t run_cell(ExperimentConfig config, const std::string& cell,
                       WriteCount snapshot_interval = 0,
                       WriteCount checkpoint_interval = 0) {
  std::ostringstream events_out;
  EventLog events(events_out);
  config.observer.events = &events;
  std::ostringstream snap_out;
  std::unique_ptr<SnapshotEmitter> snapshots;
  if (snapshot_interval > 0) {
    snapshots = std::make_unique<SnapshotEmitter>(snap_out, snapshot_interval);
    config.observer.snapshots = snapshots.get();
  }
  std::string ckpt;
  if (checkpoint_interval > 0) {
    std::string name = "engine_golden_" + cell + ".ckpt";
    for (char& c : name) {
      if (c == '/') c = '_';
    }
    ckpt = (std::filesystem::temp_directory_path() / name).string();
    std::filesystem::remove(ckpt);
    config.checkpoint_out = ckpt;
    config.checkpoint_interval = checkpoint_interval;
  }

  const LifetimeResult result = run_experiment(config);
  events.flush();

  Fnv1a h;
  digest_result(h, result);
  h.str(events_out.str());
  h.str(snap_out.str());
  if (!ckpt.empty()) {
    Result<std::vector<std::uint8_t>> state =
        Journal::read_snapshot(ckpt, config_fingerprint(config),
                               "configuration");
    EXPECT_TRUE(state.ok()) << cell << ": " << state.status().to_string();
    if (state.ok()) {
      const std::vector<std::uint8_t>& bytes = state.value();
      EXPECT_FALSE(bytes.empty()) << cell << ": no engine state";
      h.str(std::string(bytes.begin(), bytes.end()));
    }
    std::filesystem::remove(ckpt);
  }
  return h.value();
}

/// Compares a group's computed digests with every pinned row carrying the
/// group's label prefix, in both directions (no stale rows, no new cells
/// missing from the table).
void expect_pinned(const std::string& group,
                   const std::map<std::string, std::uint64_t>& computed) {
  std::map<std::string, std::uint64_t> pinned;
  for (const Golden& g : kGolden) {
    const std::string cell = g.cell;
    if (cell.rfind(group + "/", 0) == 0) pinned.emplace(cell, g.digest);
  }
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
    ADD_FAILURE() << "computed rows for group '" << group << "':\n" << rows;
  }
}

/// One attack across the full wear-leveler x spare-scheme grid, both modes.
void pin_grid(const std::string& group, const std::string& attack,
              std::uint64_t hotspot_working_set = 1) {
  std::map<std::string, std::uint64_t> computed;
  for (const std::string wl : {"none", "startgap", "tlsr", "pcms", "bwl",
                               "agebased", "twl", "wawl"}) {
    for (const std::string spare :
         {"none", "pcd", "ps", "ps-worst", "freep", "maxwe"}) {
      for (const bool fastpath : {true, false}) {
        ExperimentConfig config = base_config();
        config.attack = attack;
        config.hotspot_working_set = hotspot_working_set;
        config.wear_leveler = wl;
        config.spare_scheme = spare;
        config.fastpath = fastpath;
        const std::string cell = group + "/" + wl + "/" + spare +
                                 (fastpath ? "/fast" : "/slow");
        computed.emplace(cell, run_cell(config, cell));
      }
    }
  }
  expect_pinned(group, computed);
}

TEST(EngineGoldenTest, UaaGrid) { pin_grid("uaa", "uaa"); }
TEST(EngineGoldenTest, BpaGrid) { pin_grid("bpa", "bpa"); }
TEST(EngineGoldenTest, ZipfGrid) { pin_grid("zipf", "zipf"); }
TEST(EngineGoldenTest, RandomGrid) { pin_grid("random", "random"); }
TEST(EngineGoldenTest, HotspotGrid) { pin_grid("hotspot", "hotspot"); }
TEST(EngineGoldenTest, HotspotWorkingSet8Grid) {
  pin_grid("hotspot8", "hotspot", 8);
}

TEST(EngineGoldenTest, SideCells) {
  std::map<std::string, std::uint64_t> computed;
  const auto both_modes = [&](const std::string& name, ExperimentConfig config,
                              WriteCount snapshot_interval = 0,
                              WriteCount checkpoint_interval = 0) {
    for (const bool fastpath : {true, false}) {
      config.fastpath = fastpath;
      const std::string cell =
          "side/" + name + (fastpath ? "/fast" : "/slow");
      computed.emplace(cell, run_cell(config, cell, snapshot_interval,
                                      checkpoint_interval));
    }
  };
  ExperimentConfig config = base_config();
  config.wear_leveler = "startgap";
  config.spare_scheme = "maxwe";

  for (const std::string attack : {"uaa", "bpa"}) {
    ExperimentConfig snap = config;
    snap.attack = attack;
    both_modes("snapshots-" + attack, snap, /*snapshot_interval=*/700);
  }

  ExperimentConfig buffered = config;
  buffered.attack = "bpa";
  buffered.dram_buffer_lines = 16;
  buffered.max_user_writes = 60'000;
  both_modes("dram-buffer", buffered);

  ExperimentConfig metadata = config;
  metadata.attack = "uaa";
  metadata.fault.metadata.flip_interval = 500;
  both_modes("metadata-faults", metadata);

  ExperimentConfig device = config;
  device.attack = "uaa";
  device.wear_leveler = "pcms";
  device.fault.device.early_death_lines = 8;
  device.fault.device.early_death_fraction = 0.3;
  both_modes("device-faults", device);

  ExperimentConfig ckpt = config;
  ckpt.attack = "uaa";
  both_modes("checkpoint-uaa", ckpt, 0, /*checkpoint_interval=*/3'000);

  // The count-vector path's checkpoint payload (counts substream included).
  ExperimentConfig zipf_ckpt = config;
  zipf_ckpt.attack = "zipf";
  zipf_ckpt.wear_leveler = "none";
  both_modes("checkpoint-zipf", zipf_ckpt, 0, /*checkpoint_interval=*/2'000);

  expect_pinned("side", computed);
}

}  // namespace
}  // namespace nvmsec
