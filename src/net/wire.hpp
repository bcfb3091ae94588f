// Wire codec for the protocol message set (ThreadRuntime transport).
//
// The simulator passes message objects by pointer, so the protocol modules
// never needed a serialized form. Real sockets do: this module maps every
// message kind that crosses a process boundary — Ring Paxos (100-111), SMR
// client traffic (300-302), registry notifications (600-603), and recovery
// (610-615) — to its struct, whose fields() list (walked by
// codec/fields.hpp) is the one place its layout is spelled.
//
// Bodies are self-contained (the frame header carries from/to/kind).
// Malformed bytes — a count beyond the buffer, a trailing byte (expect_done
// at the frame layer) — throw CodecError; ThreadRuntime then closes that
// one connection and counts it in TransportStats::frames_rejected.
#pragma once

#include "runtime/thread_runtime.hpp"

namespace mrp::net {

/// The codec covering all protocol message kinds. Plug into
/// ThreadClusterOptions::codec (or mrpd's transport).
runtime::WireCodec wire_codec();

/// Encode/decode a single message body (tests and the benchmark's timed
/// codec call these). Decode returns null for a kind with no wire form.
bool wire_encode(codec::Writer& w, const runtime::Message& m);
runtime::MessagePtr wire_decode(int kind, codec::Reader& r);

}  // namespace mrp::net
