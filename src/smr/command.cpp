#include "smr/command.hpp"

namespace mrp::smr {

Bytes encode_batch(const Batch& b) {
  codec::Writer w;
  w.reserve(b.wire_size());
  codec::encode(w, b);
  return w.take();
}

Batch decode_batch(const Bytes& data) {
  codec::Reader r(data);
  Batch b;
  codec::decode(r, b);
  r.expect_done();
  return b;
}

}  // namespace mrp::smr
