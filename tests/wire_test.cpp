// Wire-format tests for net/wire and the smr batch codec.
//
//   * Golden bytes: one fixed-value message per kind (plus the flag-off
//     variants of MsgDecision and MsgCkptState) and one multi-group batch,
//     checked byte for byte against hex captured from the per-kind codec
//     that the field-list walker replaced — the wire format is pinned.
//   * Round-trip property: seeded random values for every kind and for
//     Batch survive encode -> decode -> re-encode unchanged.
//   * Mutation fuzzer: every golden body truncated at each offset, each
//     byte flipped through a few masks, and a maximal varint spliced in at
//     each offset; every mutant must decode or throw CodecError — never
//     bad_alloc, length_error or a crash.
#include <gtest/gtest.h>

#include <climits>
#include <exception>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "codec/codec.hpp"
#include "codec/fields.hpp"
#include "common/rng.hpp"
#include "coord/registry.hpp"
#include "net/wire.hpp"
#include "recovery/messages.hpp"
#include "ringpaxos/messages.hpp"
#include "smr/command.hpp"

namespace mrp {
namespace {

std::string hex(const Bytes& b) {
  static const char* digits = "0123456789abcdef";
  std::string s;
  for (std::uint8_t c : b) {
    s += digits[c >> 4];
    s += digits[c & 15];
  }
  return s;
}

paxos::Value value(ProcessId proposer, std::uint64_t seq, std::uint32_t skip,
                   const std::string& payload) {
  paxos::Value v;
  v.id = ValueId{proposer, seq};
  v.skip_count = skip;
  v.payload = Payload(payload);
  return v;
}

template <class T>
std::shared_ptr<T> ring_msg(GroupId ring, int ttl) {
  auto m = std::make_shared<T>();
  m->ring = ring;
  m->ttl = ttl;
  return m;
}

struct Fixture {
  const char* name;
  runtime::MessagePtr msg;
};

// Every field is set to a distinct non-default value, so a field that is
// dropped, duplicated or reordered changes the bytes.
std::vector<Fixture> fixtures() {
  std::vector<Fixture> out;
  {
    auto m = ring_msg<ringpaxos::MsgProposal>(3, 7);
    m->value = value(2, 0x0102030405060708ULL, 0, "abc");
    out.push_back({"Proposal", m});
  }
  {
    auto m = ring_msg<ringpaxos::MsgPhase1A>(4, -2);
    m->round = 9;
    m->floor = 10;
    m->aview = 11;
    out.push_back({"Phase1A", m});
  }
  {
    auto m = ring_msg<ringpaxos::MsgPhase1B>(5, 1);
    m->round = 12;
    m->acceptor = kNoProcess;
    m->trimmed_to = 13;
    m->aview = 14;
    paxos::Promise p1;
    p1.instance = 15;
    p1.vround = 16;
    p1.value = value(1, 17, 0, "v1");
    p1.decided = true;
    paxos::Promise p2;
    p2.instance = 18;
    p2.vround = 19;
    p2.value = value(3, 20, 4, "");
    m->promises = {p1, p2};
    out.push_back({"Phase1B", m});
  }
  {
    auto m = ring_msg<ringpaxos::MsgPhase2>(6, 2);
    m->round = 21;
    m->instance = 22;
    m->value = value(4, 23, 0, "phase2");
    m->votes = 0b101;
    m->aview = 24;
    out.push_back({"Phase2", m});
  }
  {
    auto m = ring_msg<ringpaxos::MsgDecision>(7, 3);
    m->instance = 25;
    m->value = value(5, 26, 0, "dec");
    m->with_value = true;
    m->origin = 8;
    out.push_back({"DecisionWithValue", m});
  }
  {
    auto m = ring_msg<ringpaxos::MsgDecision>(7, 3);
    m->instance = 27;
    m->value = value(5, 28, 0, "not-on-the-wire");
    m->with_value = false;
    m->origin = kNoProcess;
    out.push_back({"DecisionNoValue", m});
  }
  {
    auto m = ring_msg<ringpaxos::MsgRetransmitReq>(8, 0);
    m->lo = 29;
    m->hi = 30;
    out.push_back({"RetransmitReq", m});
  }
  {
    auto m = ring_msg<ringpaxos::MsgRetransmitReply>(9, 4);
    m->lo = 31;
    m->hi = 33;
    m->trimmed_to = 30;
    m->decided = {{31, value(1, 34, 0, "r1")}, {32, value(2, 35, 2, "")}};
    out.push_back({"RetransmitReply", m});
  }
  {
    auto m = ring_msg<ringpaxos::MsgTrim>(10, 5);
    m->upto = 36;
    out.push_back({"Trim", m});
  }
  {
    auto m = ring_msg<ringpaxos::MsgBusy>(11, 6);
    m->id = ValueId{3, 37};
    m->retry_after = -5;
    out.push_back({"Busy", m});
  }
  {
    auto m = ring_msg<ringpaxos::MsgLogSyncReq>(12, 7);
    m->seq = 38;
    m->from = 39;
    out.push_back({"LogSyncReq", m});
  }
  {
    auto m = ring_msg<ringpaxos::MsgLogSyncReply>(13, 8);
    m->seq = 40;
    m->from = 41;
    m->promised = 42;
    m->trimmed_to = 43;
    paxos::Promise p;
    p.instance = 44;
    p.vround = 45;
    p.value = value(2, 46, 0, "rec");
    m->records = {p};
    m->next = 47;
    m->done = true;
    out.push_back({"LogSyncReply", m});
  }
  {
    auto m = std::make_shared<smr::MsgClientRequest>();
    m->group = 2;
    m->command.session = smr::make_session(9, 3);
    m->command.seq = 48;
    m->command.op = to_bytes("put k v");
    m->command.groups = {0, 2};
    out.push_back({"ClientRequest", m});
  }
  {
    auto m = std::make_shared<smr::MsgClientReply>();
    m->session = smr::make_session(9, 4);
    m->seq = 49;
    m->partition_tag = -3;
    m->result = to_bytes("ok");
    out.push_back({"ClientReply", m});
  }
  {
    auto m = std::make_shared<smr::MsgClientBusy>();
    m->session = smr::make_session(9, 5);
    m->seq = 50;
    m->group = 1;
    m->retry_after = 1500;
    out.push_back({"ClientBusy", m});
  }
  {
    auto m = std::make_shared<coord::MsgViewChange>();
    m->view.ring = 1;
    m->view.epoch = 51;
    m->view.acceptor_view = 52;
    m->view.members = {1, 2, 3};
    m->view.acceptors = {1, 3};
    m->view.configured_acceptors = {1, 2, 4};
    m->view.total_acceptors = 300;  // multi-byte varint
    m->view.coordinator = 3;
    out.push_back({"ViewChange", m});
  }
  {
    auto m = std::make_shared<coord::MsgSchemaChange>();
    m->key = "parts";
    m->entry.version = 53;
    m->entry.encoded = "x=1";
    out.push_back({"SchemaChange", m});
  }
  {
    auto m = std::make_shared<coord::MsgSubChange>();
    m->process = 7;
    m->epoch = 54;
    m->groups = {1, 5};
    out.push_back({"SubChange", m});
  }
  {
    auto m = std::make_shared<coord::MsgAcceptorPrep>();
    m->ring = 2;
    m->seq = 55;
    m->sources = {1, 3};
    out.push_back({"AcceptorPrep", m});
  }
  {
    auto m = std::make_shared<recovery::MsgTrimQuery>();
    m->group = 4;
    out.push_back({"TrimQuery", m});
  }
  {
    auto m = std::make_shared<recovery::MsgTrimReply>();
    m->group = 4;
    m->safe = 56;
    m->partition_key = "p0";
    out.push_back({"TrimReply", m});
  }
  out.push_back({"CkptQuery", std::make_shared<recovery::MsgCkptQuery>()});
  {
    auto m = std::make_shared<recovery::MsgCkptInfo>();
    m->has = true;
    m->tuple = {{0, 57}, {2, 58}};
    m->sequence = 59;
    out.push_back({"CkptInfo", m});
  }
  out.push_back({"CkptFetch", std::make_shared<recovery::MsgCkptFetch>()});
  {
    auto m = std::make_shared<recovery::MsgCkptState>();
    m->has = true;
    m->checkpoint.next = {{1, 60}};
    m->checkpoint.state = to_bytes("state");
    m->checkpoint.sequence = 61;
    out.push_back({"CkptStateWithCheckpoint", m});
  }
  {
    auto m = std::make_shared<recovery::MsgCkptState>();
    m->has = false;
    m->checkpoint.sequence = 62;  // not on the wire when !has
    out.push_back({"CkptStateEmpty", m});
  }
  return out;
}

smr::Batch golden_batch() {
  smr::Batch b;
  smr::Command multi;
  multi.session = smr::make_session(10, 1);
  multi.seq = 63;
  multi.op = to_bytes("transfer");
  multi.groups = {1, 2};
  smr::Command single;
  single.session = smr::make_session(10, 2);
  single.seq = 64;
  single.op = to_bytes("get");
  b.commands = {multi, single};
  return b;
}

// Hex encodings captured from the per-kind codec the field-list walker
// replaced, one per fixture, in fixtures() order.
struct Golden {
  const char* name;
  int kind;
  const char* hex;
};
const Golden kGoldens[] = {
    {"Proposal", 100,
     "03000000070000000200000008070605040302010000000003616263"},
    {"Phase1A", 101,
     "04000000feffffff09000000000000000a000000000000000b00000000000000"},
    {"Phase1B", 102,
     "05000000010000000c00000000000000ffffffff0d000000000000000e000000"
     "00000000020f0000000000000010000000000000000100000011000000000000"
     "0000000000027631011200000000000000130000000000000003000000140000"
     "0000000000040000000000"},
    {"Phase2", 103,
     "0600000002000000150000000000000016000000000000000400000017000000"
     "00000000000000000670686173653205000000000000001800000000000000"},
    {"DecisionWithValue", 104,
     "0700000003000000190000000000000001050000001a00000000000000000000"
     "000364656308000000"},
    {"DecisionNoValue", 104,
     "07000000030000001b0000000000000000ffffffff"},
    {"RetransmitReq", 105,
     "08000000000000001d000000000000001e00000000000000"},
    {"RetransmitReply", 106,
     "09000000040000001f0000000000000021000000000000001e00000000000000"
     "021f000000000000000100000022000000000000000000000002723120000000"
     "000000000200000023000000000000000200000000"},
    {"Trim", 107,
     "0a000000050000002400000000000000"},
    {"Busy", 108,
     "0b00000006000000030000002500000000000000fbffffffffffffff"},
    {"LogSyncReq", 110,
     "0c0000000700000026000000000000002700000000000000"},
    {"LogSyncReply", 111,
     "0d00000008000000280000000000000029000000000000002a00000000000000"
     "2b00000000000000012c000000000000002d00000000000000020000002e0000"
     "00000000000000000003726563002f0000000000000001"},
    {"ClientRequest", 300,
     "020000000300900000000000300000000000000007707574206b207602000000"
     "0002000000"},
    {"ClientReply", 301,
     "04009000000000003100000000000000fdffffff026f6b"},
    {"ClientBusy", 302,
     "0500900000000000320000000000000001000000dc05000000000000"},
    {"ViewChange", 600,
     "0100000033000000000000000301000000020000000300000002010000000300"
     "0000ac0203000000340000000000000003010000000200000004000000"},
    {"SchemaChange", 601,
     "057061727473350000000000000003783d31"},
    {"SubChange", 602,
     "070000003600000000000000020100000005000000"},
    {"AcceptorPrep", 603,
     "020000003700000000000000020100000003000000"},
    {"TrimQuery", 610,
     "04000000"},
    {"TrimReply", 611,
     "040000003800000000000000027030"},
    {"CkptQuery", 612,
     ""},
    {"CkptInfo", 613,
     "0102000000003900000000000000020000003a000000000000003b0000000000"
     "0000"},
    {"CkptFetch", 614,
     ""},
    {"CkptStateWithCheckpoint", 615,
     "0101010000003c000000000000000573746174653d00000000000000"},
    {"CkptStateEmpty", 615,
     "00"},
};

const char* const kGoldenBatch =
    "020100a000000000003f00000000000000087472616e73666572020100000002"
    "0000000200a0000000000040000000000000000367657400";

Bytes unhex(const std::string& s) {
  Bytes b;
  for (std::size_t i = 0; i + 1 < s.size(); i += 2) {
    b.push_back(
        static_cast<std::uint8_t>(std::stoi(s.substr(i, 2), nullptr, 16)));
  }
  return b;
}

Bytes encode(const runtime::Message& m) {
  codec::Writer w;
  EXPECT_TRUE(net::wire_encode(w, m)) << "kind " << m.kind();
  return w.take();
}

runtime::MessagePtr decode(int kind, const Bytes& body) {
  codec::Reader r(body);
  runtime::MessagePtr m = net::wire_decode(kind, r);
  if (m) r.expect_done();
  return m;
}

// Every struct with a wire form, one per kind.
template <class... T>
struct Types {};
using WireTypes =
    Types<ringpaxos::MsgProposal, ringpaxos::MsgPhase1A,
          ringpaxos::MsgPhase1B, ringpaxos::MsgPhase2, ringpaxos::MsgDecision,
          ringpaxos::MsgRetransmitReq, ringpaxos::MsgRetransmitReply,
          ringpaxos::MsgTrim, ringpaxos::MsgBusy, ringpaxos::MsgLogSyncReq,
          ringpaxos::MsgLogSyncReply, smr::MsgClientRequest,
          smr::MsgClientReply, smr::MsgClientBusy, coord::MsgViewChange,
          coord::MsgSchemaChange, coord::MsgSubChange, coord::MsgAcceptorPrep,
          recovery::MsgTrimQuery, recovery::MsgTrimReply,
          recovery::MsgCkptQuery, recovery::MsgCkptInfo,
          recovery::MsgCkptFetch, recovery::MsgCkptState>;

// ---- golden bytes -----------------------------------------------------------

TEST(WireGolden, EveryKindEncodesToCapturedBytes) {
  const auto fx = fixtures();
  ASSERT_EQ(fx.size(), std::size(kGoldens));
  for (std::size_t i = 0; i < fx.size(); ++i) {
    SCOPED_TRACE(fx[i].name);
    EXPECT_STREQ(fx[i].name, kGoldens[i].name);
    EXPECT_EQ(fx[i].msg->kind(), kGoldens[i].kind);
    const Bytes bytes = encode(*fx[i].msg);
    EXPECT_EQ(hex(bytes), kGoldens[i].hex);
    // ...and the captured bytes decode back to the same encoding.
    const runtime::MessagePtr m = decode(kGoldens[i].kind, bytes);
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(hex(encode(*m)), kGoldens[i].hex);
  }
}

TEST(WireGolden, FixturesCoverEveryWireKind) {
  std::set<int> fixture_kinds, wire_kinds;
  for (const auto& f : fixtures()) fixture_kinds.insert(f.msg->kind());
  [&]<class... T>(Types<T...>) {
    (wire_kinds.insert(T{}.kind()), ...);
  }(WireTypes{});
  EXPECT_EQ(fixture_kinds, wire_kinds);
  EXPECT_EQ(wire_kinds.size(), 24u);
}

TEST(WireGolden, UnknownKindDecodesToNull) {
  for (int kind : {0, 99, 109, 200, 303, 604, 616, 9999, -1}) {
    const Bytes empty;
    codec::Reader r(empty);
    EXPECT_EQ(net::wire_decode(kind, r), nullptr) << kind;
  }
}

TEST(WireGolden, BatchEncodesToCapturedBytes) {
  const Bytes bytes = smr::encode_batch(golden_batch());
  EXPECT_EQ(hex(bytes), kGoldenBatch);
  const smr::Batch b = smr::decode_batch(bytes);
  ASSERT_EQ(b.commands.size(), 2u);
  EXPECT_EQ(b.commands[0].groups, (std::vector<GroupId>{1, 2}));
  EXPECT_EQ(to_string(b.commands[1].op), "get");
  EXPECT_EQ(hex(smr::encode_batch(b)), kGoldenBatch);
}

// ---- seeded round-trip property ---------------------------------------------

// Fills any wire struct with random values by walking its field list,
// drawing integers from pools that include the edge values (kNoProcess,
// extremes, negatives) and containers of size 0-3. Counts the edge cases
// it produced so the test can assert they were exercised.
class Randomizer {
 public:
  explicit Randomizer(std::uint64_t seed) : rng_(seed) {}

  template <class T>
  void fill(T& x) {
    using codec::kIs;
    if constexpr (std::is_same_v<T, bool>) {
      x = rng_.next_below(2) == 1;
      ++(x ? trues : falses);
    } else if constexpr (std::is_same_v<T, std::int32_t>) {
      const std::int32_t pool[] = {kNoProcess, 0, 1, 7, INT32_MIN, INT32_MAX};
      x = rng_.next_below(2) == 0
              ? pool[rng_.next_below(std::size(pool))]
              : static_cast<std::int32_t>(rng_.next());
      if (x == kNoProcess) ++no_process;
    } else if constexpr (std::is_same_v<T, std::uint32_t>) {
      x = static_cast<std::uint32_t>(integer());
    } else if constexpr (std::is_same_v<T, std::uint64_t>) {
      x = integer();
    } else if constexpr (std::is_same_v<T, std::int64_t>) {
      x = static_cast<std::int64_t>(integer());
      if (x < 0) ++negatives;
    } else if constexpr (std::is_same_v<T, Bytes> ||
                         std::is_same_v<T, std::string>) {
      x.resize(rng_.next_below(6));
      for (auto& c : x) c = static_cast<typename T::value_type>(rng_.next());
    } else if constexpr (std::is_same_v<T, Payload>) {
      Bytes b;
      fill(b);
      x = Payload(std::move(b));
    } else if constexpr (kIs<T, std::vector>) {
      x.resize(rng_.next_below(4));
      if (x.empty()) ++empty_vectors;
      for (auto& e : x) fill(e);
    } else if constexpr (kIs<T, std::map>) {
      for (std::uint64_t n = rng_.next_below(4); n > 0; --n) {
        typename T::key_type k{};
        fill(k);
        fill(x[k]);
      }
    } else if constexpr (kIs<T, std::pair>) {
      fill(x.first);
      fill(x.second);
    } else if constexpr (kIs<T, codec::Varint>) {
      x.v = integer();
    } else if constexpr (kIs<T, codec::When>) {
      fill(x.v);
    } else {
      T::fields(x, [this](auto&&... f) { (fill(f), ...); });
    }
  }

  int trues = 0, falses = 0, no_process = 0, negatives = 0, empty_vectors = 0;

 private:
  std::uint64_t integer() {
    const std::uint64_t pool[] = {0, 1, 127, 128, ~0ULL, 1ULL << 63};
    return rng_.next_below(2) == 0 ? pool[rng_.next_below(std::size(pool))]
                                   : rng_.next() >> rng_.next_below(64);
  }

  Rng rng_;
};

template <class T>
void expect_roundtrips(Randomizer& rnd, int iterations) {
  for (int i = 0; i < iterations; ++i) {
    T m;
    rnd.fill(m);
    const Bytes bytes = encode(m);
    const runtime::MessagePtr d = decode(m.kind(), bytes);
    ASSERT_NE(d, nullptr) << "kind " << m.kind();
    ASSERT_EQ(hex(encode(*d)), hex(bytes)) << "kind " << m.kind();
  }
}

TEST(WireRoundtrip, RandomValuesEveryKind) {
  Randomizer rnd(0x5eed);
  [&]<class... T>(Types<T...>) {
    (expect_roundtrips<T>(rnd, 200), ...);
  }(WireTypes{});
  // The pools actually produced the edge cases (with_value/has both ways,
  // kNoProcess ids, negative retry_after, empty vectors).
  EXPECT_GT(rnd.trues, 0);
  EXPECT_GT(rnd.falses, 0);
  EXPECT_GT(rnd.no_process, 0);
  EXPECT_GT(rnd.negatives, 0);
  EXPECT_GT(rnd.empty_vectors, 0);
}

TEST(WireRoundtrip, RandomBatches) {
  Randomizer rnd(0xba7c);
  for (int i = 0; i < 500; ++i) {
    smr::Batch b;
    rnd.fill(b);
    const Bytes bytes = smr::encode_batch(b);
    ASSERT_EQ(hex(smr::encode_batch(smr::decode_batch(bytes))), hex(bytes));
  }
  EXPECT_GT(rnd.empty_vectors, 0);
}

// ---- hardening --------------------------------------------------------------

// A count larger than the bytes left is rejected before anything is
// allocated (it used to reach vector::reserve).
TEST(WireHardening, HugeCountsThrowCodecError) {
  for (std::uint64_t n : {1ULL << 40, 1ULL << 62, ~0ULL}) {
    codec::Writer w;
    w.u32(0);      // group
    w.u64(1);      // session
    w.u64(1);      // seq
    w.varint(0);   // op
    w.varint(n);   // group count
    EXPECT_THROW(decode(smr::kMsgClientRequest, w.buffer()),
                 codec::CodecError)
        << n;
    codec::Writer bw;
    bw.varint(n);  // command count
    EXPECT_THROW(smr::decode_batch(bw.buffer()), codec::CodecError) << n;
  }
}

// Decodes a (possibly mutated) body: it must either decode — and then
// re-encode without trouble — or throw CodecError. Anything else fails.
template <class Decode>
void expect_decodes_or_rejects(const Bytes& body, const std::string& what,
                               Decode&& decode_fn) {
  try {
    decode_fn(body);
  } catch (const codec::CodecError&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": threw " << e.what();
  }
}

// Every mutant of `body`: truncated at each offset, each byte flipped
// through three masks, and a maximal varint spliced in (inserted and
// overwritten) at each offset.
template <class Decode>
void fuzz(const Bytes& body, const std::string& name, Decode&& decode_fn) {
  const Bytes max_varint = {0xff, 0xff, 0xff, 0xff, 0xff,
                            0xff, 0xff, 0xff, 0xff, 0x01};
  for (std::size_t i = 0; i < body.size(); ++i) {
    const Bytes cut(body.begin(), body.begin() + static_cast<long>(i));
    expect_decodes_or_rejects(cut, name + " truncated@" + std::to_string(i),
                              decode_fn);
    for (std::uint8_t mask : {0x01, 0x80, 0xff}) {
      Bytes flipped = body;
      flipped[i] ^= mask;
      expect_decodes_or_rejects(
          flipped, name + " flip@" + std::to_string(i), decode_fn);
    }
  }
  for (std::size_t i = 0; i <= body.size(); ++i) {
    Bytes inserted = body;
    inserted.insert(inserted.begin() + static_cast<long>(i),
                    max_varint.begin(), max_varint.end());
    expect_decodes_or_rejects(
        inserted, name + " varint-insert@" + std::to_string(i), decode_fn);
    Bytes overwritten(body.begin(), body.begin() + static_cast<long>(i));
    overwritten.insert(overwritten.end(), max_varint.begin(),
                       max_varint.end());
    if (i + max_varint.size() < body.size()) {
      overwritten.insert(
          overwritten.end(),
          body.begin() + static_cast<long>(i + max_varint.size()), body.end());
    }
    expect_decodes_or_rejects(
        overwritten, name + " varint-overwrite@" + std::to_string(i),
        decode_fn);
  }
}

TEST(WireFuzz, MutatedGoldenBodiesDecodeOrThrowCodecError) {
  for (const Golden& g : kGoldens) {
    fuzz(unhex(g.hex), g.name, [kind = g.kind](const Bytes& b) {
      const runtime::MessagePtr m = decode(kind, b);
      if (m) encode(*m);
    });
  }
}

TEST(WireFuzz, MutatedBatchDecodesOrThrowsCodecError) {
  fuzz(unhex(kGoldenBatch), "batch", [](const Bytes& b) {
    smr::encode_batch(smr::decode_batch(b));
  });
}

}  // namespace
}  // namespace mrp
