#ifndef SCODED_DISTRIBUTED_WORKER_H_
#define SCODED_DISTRIBUTED_WORKER_H_

#include "common/net.h"
#include "common/result.h"

namespace scoded::dist {

/// Serves coordinator requests over `conn` until the peer departs or asks
/// for shutdown. The protocol is framed JSON (serve/framing.h), one
/// response per request:
///
///  * {"op":"ping"} → {"ok":true} — liveness probe;
///  * {"op":"shutdown"} → {"ok":true}, then the loop returns — the clean
///    way a coordinator dismisses its fleet;
///  * {"op":"summarize", "path", "reader":{shard_rows, buffer_bytes,
///     delimiter}, "schema":{names, numeric}, "window":{byte_begin,
///     byte_end, row_begin, rows, to_eof}, "specs":[...]} → reads only the
///    window's bytes as shards under the given schema (csv::WindowReader:
///    no first pass, no parsing of earlier shards), accumulates one
///    PairwiseShardSummary per spec, and replies
///    {"ok":true, "shards":N, "rows":"R", "summaries":[...]} with each
///    summary in the exact integer wire form of WriteShardSummaryJson. A
///    window whose bytes or row count differ from what the coordinator's
///    first pass saw fails with kDataLoss "changed between passes".
///
/// Per-request failures reply {"ok":false, "code", "message"} and keep
/// serving; only transport errors and shutdown end the loop. The worker
/// holds one shard (plus its summaries) at a time, so its peak RSS is
/// bounded by shard size, not file size.
///
/// Returns OkStatus on clean shutdown or peer departure; a transport
/// error otherwise.
Status ServeWorker(net::TcpConn& conn);

}  // namespace scoded::dist

#endif  // SCODED_DISTRIBUTED_WORKER_H_
