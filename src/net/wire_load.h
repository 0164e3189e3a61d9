// Remote twin of serve/client_driver.h: N client threads drive a
// WireServer over TCP with the SAME workload semantics as RunClientLoad
// (round-robin reads with per-thread offsets, optional hot set, optional
// write mix with per-thread remove-own-inserts, pipelined depth), so the
// scenario suite's `--net` runs and `wazi_cli throughput --connect`
// measure the wire against the embedded path like for like. Each thread
// owns one connection; reads are pipelined `admission_depth` deep (depth
// 0 runs synchronously), and the wall clock starts before any client
// issues an op (the same start-latch discipline as the embedded driver).

#ifndef WAZI_NET_WIRE_LOAD_H_
#define WAZI_NET_WIRE_LOAD_H_

#include <cstdint>
#include <string>

#include "serve/client_driver.h"

namespace wazi::net {

// Drives `host:port` for opts.seconds with opts.threads connections.
// Latencies are submit -> response-decoded (full wire round trip,
// admission window included). A failed initial connect returns a zeroed
// result (elapsed_seconds == 0); transport loss mid-run stops the
// affected client, the rest keep driving.
serve::ClientLoadResult RunWireClientLoad(const std::string& host,
                                          uint16_t port,
                                          const Workload& workload,
                                          const serve::ClientLoadOptions& opts);

}  // namespace wazi::net

#endif  // WAZI_NET_WIRE_LOAD_H_
