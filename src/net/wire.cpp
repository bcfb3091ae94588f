#include "net/wire.hpp"

#include <memory>

#include "codec/fields.hpp"
#include "coord/registry.hpp"
#include "recovery/messages.hpp"
#include "ringpaxos/messages.hpp"
#include "smr/command.hpp"

namespace mrp::net {
namespace {

template <class T> struct Type {};

// The kind -> struct table: every message kind that crosses a process
// boundary. Returns f(Type<T>{}) for the struct T of `kind`, or R{} when
// the kind has no wire form.
template <class R, class F>
R with_kind(int kind, F&& f) {
  switch (kind) {
    case ringpaxos::kMsgProposal: return f(Type<ringpaxos::MsgProposal>{});
    case ringpaxos::kMsgPhase1A: return f(Type<ringpaxos::MsgPhase1A>{});
    case ringpaxos::kMsgPhase1B: return f(Type<ringpaxos::MsgPhase1B>{});
    case ringpaxos::kMsgPhase2: return f(Type<ringpaxos::MsgPhase2>{});
    case ringpaxos::kMsgDecision: return f(Type<ringpaxos::MsgDecision>{});
    case ringpaxos::kMsgRetransmitReq:
      return f(Type<ringpaxos::MsgRetransmitReq>{});
    case ringpaxos::kMsgRetransmitReply:
      return f(Type<ringpaxos::MsgRetransmitReply>{});
    case ringpaxos::kMsgTrim: return f(Type<ringpaxos::MsgTrim>{});
    case ringpaxos::kMsgBusy: return f(Type<ringpaxos::MsgBusy>{});
    case ringpaxos::kMsgLogSyncReq: return f(Type<ringpaxos::MsgLogSyncReq>{});
    case ringpaxos::kMsgLogSyncReply:
      return f(Type<ringpaxos::MsgLogSyncReply>{});
    case smr::kMsgClientRequest: return f(Type<smr::MsgClientRequest>{});
    case smr::kMsgClientReply: return f(Type<smr::MsgClientReply>{});
    case smr::kMsgClientBusy: return f(Type<smr::MsgClientBusy>{});
    case coord::kMsgViewChange: return f(Type<coord::MsgViewChange>{});
    case coord::kMsgSchemaChange: return f(Type<coord::MsgSchemaChange>{});
    case coord::kMsgSubChange: return f(Type<coord::MsgSubChange>{});
    case coord::kMsgAcceptorPrep: return f(Type<coord::MsgAcceptorPrep>{});
    case recovery::kMsgTrimQuery: return f(Type<recovery::MsgTrimQuery>{});
    case recovery::kMsgTrimReply: return f(Type<recovery::MsgTrimReply>{});
    case recovery::kMsgCkptQuery: return f(Type<recovery::MsgCkptQuery>{});
    case recovery::kMsgCkptInfo: return f(Type<recovery::MsgCkptInfo>{});
    case recovery::kMsgCkptFetch: return f(Type<recovery::MsgCkptFetch>{});
    case recovery::kMsgCkptState: return f(Type<recovery::MsgCkptState>{});
    default: return R{};
  }
}

}  // namespace

bool wire_encode(codec::Writer& w, const runtime::Message& m) {
  return with_kind<bool>(m.kind(), [&]<class T>(Type<T>) {
    codec::encode(w, runtime::msg_cast<T>(m));
    return true;
  });
}

runtime::MessagePtr wire_decode(int kind, codec::Reader& r) {
  return with_kind<runtime::MessagePtr>(kind, [&]<class T>(Type<T>) {
    auto m = std::make_shared<T>();
    codec::decode(r, *m);
    return m;
  });
}

runtime::WireCodec wire_codec() {
  runtime::WireCodec c;
  c.encode = &wire_encode;
  c.decode = &wire_decode;
  return c;
}

}  // namespace mrp::net
