// Field-list walker: derives a struct's encoding and decoding from the one
// field list it declares next to its members, e.g.
//
//   static void fields(auto& s, auto&& f) { f(s.id, s.payload); }
//
// `s` is the struct (const when encoding); `f` takes fields in wire order.
// The mapping, applied recursively:
//
//   bool                  u8 0/1
//   int32_t               two's-complement u32 (kNoProcess round-trips)
//   uint32_t, uint64_t    u32, u64;  int64_t as i64
//   Bytes, string         varint length + raw bytes;  Payload as Bytes
//   vector, map           varint count + elements (a pair is key, value)
//   varint(x)             unsigned integer as a varint
//   when(flag, x)         x, on the wire only while `flag` (an earlier
//                         field) is set
//   struct                its fields() list
//
// Any other type fails to compile. Decoding fills a default-constructed
// object and treats input as untrusted: a container count larger than the
// bytes left throws CodecError before anything is allocated.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "codec/codec.hpp"
#include "common/types.hpp"

namespace mrp::codec {

template <class T> struct Varint { T& v; };
template <class B, class T> struct When { B& flag; T& v; };
template <class T> Varint<T> varint(T& v) { return {v}; }
template <class B, class T>
When<B, T> when(B& flag, T& v) { return {flag, v}; }

// Type tests the walkers dispatch on.
template <class T, template <class...> class Tpl>
constexpr bool kIs = false;
template <template <class...> class Tpl, class... A>
constexpr bool kIs<Tpl<A...>, Tpl> = true;
template <class T, class U>
constexpr bool kSame = std::is_same_v<T, U>;

template <class T>
void encode(Writer& w, const T& x) {
  if constexpr (kSame<T, bool>) {
    w.u8(x ? 1 : 0);
  } else if constexpr (kSame<T, std::int32_t> || kSame<T, std::uint32_t>) {
    w.u32(static_cast<std::uint32_t>(x));
  } else if constexpr (kSame<T, std::uint64_t> || kSame<T, std::int64_t>) {
    w.u64(static_cast<std::uint64_t>(x));
  } else if constexpr (kSame<T, Bytes>) {
    w.bytes(x);
  } else if constexpr (kSame<T, std::string>) {
    w.str(x);
  } else if constexpr (kSame<T, Payload>) {
    w.bytes(x.bytes());
  } else if constexpr (kIs<T, std::vector> || kIs<T, std::map>) {
    w.varint(x.size());
    for (const auto& e : x) encode(w, e);
  } else if constexpr (kIs<T, std::pair>) {
    encode(w, x.first);
    encode(w, x.second);
  } else if constexpr (kIs<T, Varint>) {
    w.varint(x.v);
  } else if constexpr (kIs<T, When>) {
    if (x.flag) encode(w, x.v);
  } else {
    T::fields(x, [&w](const auto&... f) { (encode(w, f), ...); });
  }
}

template <class T>
void decode(Reader& r, T& x) {
  if constexpr (kSame<T, bool>) {
    x = r.u8() != 0;
  } else if constexpr (kSame<T, std::int32_t> || kSame<T, std::uint32_t>) {
    x = static_cast<T>(r.u32());
  } else if constexpr (kSame<T, std::uint64_t> || kSame<T, std::int64_t>) {
    x = static_cast<T>(r.u64());
  } else if constexpr (kSame<T, Bytes>) {
    x = r.bytes();
  } else if constexpr (kSame<T, std::string>) {
    x = r.str();
  } else if constexpr (kSame<T, Payload>) {
    x = Payload(r.bytes());
  } else if constexpr (kIs<T, std::vector> || kIs<T, std::map>) {
    // Every element takes at least one byte.
    const std::uint64_t n = r.varint();
    if (n > r.remaining()) throw CodecError("count exceeds buffer");
    if constexpr (kIs<T, std::vector>) {
      x.reserve(n);
      for (std::uint64_t i = 0; i < n; ++i) decode(r, x.emplace_back());
    } else {
      for (std::uint64_t i = 0; i < n; ++i) {
        typename T::key_type k{};
        decode(r, k);
        decode(r, x[k]);
      }
    }
  } else if constexpr (kIs<T, std::pair>) {
    decode(r, x.first);
    decode(r, x.second);
  } else if constexpr (kIs<T, Varint>) {
    x.v = static_cast<std::remove_reference_t<decltype(x.v)>>(r.varint());
  } else if constexpr (kIs<T, When>) {
    if (x.flag) decode(r, x.v);
  } else {
    T::fields(x, [&r](auto&&... f) { (decode(r, f), ...); });
  }
}

}  // namespace mrp::codec
