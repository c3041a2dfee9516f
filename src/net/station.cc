#include "src/net/station.h"

#include <chrono>

namespace dcws::net {

void StationDutyRound(core::Server* server, core::PeerClient* peers) {
  server->Tick(peers);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
}

}  // namespace dcws::net
