// Package resp is the binary wire plane of the filter service: a RESP2/RESP3
// (REdis Serialization Protocol) parser, serializer, TCP server and pipelined
// client exposing the service.Registry through redis-cli-compatible commands
// (BF.RESERVE, BF.ADD/BF.MADD, BF.EXISTS/BF.MEXISTS, BF.INFO, CF.DEL, PING,
// HELLO, COMMAND).
//
// The HTTP plane tops out around the cost of one JSON request/response per
// batch; the attacks of GerbetKL15 §4–§7 and the §8 countermeasure ladder are
// only realistic against a query interface running at production rates. This
// plane removes the ceiling two ways:
//
//   - Commands decoded in place, without allocating. A Reader owns one
//     buffer per connection, reads the socket into it, and hands out a
//     command's arguments as views of it — no argument is copied, and the
//     steady-state hot path allocates nothing. Arguments are valid until
//     the next blocking ReadCommand on that Reader (which may slide, grow
//     or replace the buffer); ReadBuffered in between never moves it. The
//     store copies item bytes synchronously (journal append, bit updates),
//     so handing views to AddBatch is safe. The parse is resumable: how
//     far a half-arrived command has been scanned is kept as offsets, so
//     no byte is scanned twice however the transport cuts the stream, and
//     a buffer move in between is harmless. The buffer is 64 KiB, doubles
//     to at most one command at every wire limit with its framing
//     (maxReaderBufSize, a little over 8 MiB), and is dropped for a fresh
//     64 KiB one at the first read after the oversized command has been
//     consumed, so an idle connection holds 64 KiB however large its last
//     command was.
//
//   - Pipelined batch execution. The server blocks for one command, then
//     takes every fully-buffered command behind it into the same batch
//     without reading again; a command still arriving, or a malformed one,
//     waits for the next blocking read, after the replies to the whole
//     commands in front of it have gone out. Consecutive
//     commands with the same kind (add / test / remove) and filter collapse
//     into a single TestAndAddBatch/TestBatch/RemoveBatch call — one
//     shard-lock acquisition per run instead of per command — and replies
//     are rendered one command at a time straight into the write buffer, in
//     command order, with a single flush per batch. An add run answers
//     "newly added" from its one TestAndAddBatch pass, which reads each
//     item's presence under the shard lock that inserts it, as removeLocked
//     answers removal: a pipelined run replies exactly what its commands
//     would reply one at a time, duplicates included (BF.MADD web a a
//     answers 1, 0). Interleaved kinds (ADD a; EXISTS a; ADD b) degrade
//     gracefully to runs of length one.
//
// The plane is deliberately NOT a side door around the §8 mitigations:
// mutations spend the same per-client rate-limit buckets as HTTP (identity =
// host part of the connection's remote address, exactly the HTTP fallback
// rule), creation goes through the registry's caps and storage budget, and
// Shutdown drains live connections like http.Server.Shutdown.
//
// Divergences from RedisBloom, chosen for an attack lab: item commands on an
// unknown filter answer an error instead of auto-creating (auto-create would
// bypass explicit geometry and muddy pollution accounting), and BF.RESERVE
// accepts VARIANT/MODE/SHARDS/SHARDBITS/HASHES/SEED/COUNTERWIDTH/OVERFLOW
// option pairs so experiments can pin paper geometries (m=3200, k=4) over
// the wire.
package resp
