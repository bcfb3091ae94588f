// Small-buffer-optimized, move-only callable for scheduler events.
//
// Every scheduled event used to carry a std::function<void()>, whose inline
// buffer (16 B in libstdc++) is too small for the typical simulator capture
// (this + a couple of ids + a shared_ptr payload), so nearly every event
// heap-allocated. Task inlines captures up to kInlineSize bytes and falls
// back to a fixed-block free list for larger ones, making the common
// schedule/fire cycle allocation-free and the uncommon one a pointer pop.
//
// The free list is thread_local: the simulator is single-threaded, and the
// thread runtime runs one event loop per thread, so each loop recycles its
// own blocks without locking. A Task moved across threads (rare: cross-loop
// scheduling) simply frees its block to the destroying thread's list —
// blocks are interchangeable.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace mrp::runtime {

namespace detail {

/// Free list of fixed-size blocks for captures that do not fit inline.
/// Blocks are returned to the system only when their thread exits; the
/// pool's high-water mark is the peak number of simultaneously queued large
/// events.
class TaskSlab {
 public:
  static constexpr std::size_t kBlockSize = 128;

  static void* allocate(std::size_t n, std::size_t align) {
    if (align > alignof(std::max_align_t)) {
      // Over-aligned capture (e.g. alignas(32) SIMD state): the slab's
      // blocks only guarantee default alignment, so go straight to the
      // aligned allocator.
      return ::operator new(n, std::align_val_t(align));
    }
    if (n > kBlockSize) return ::operator new(n);
    Node*& head = free_list();
    if (head != nullptr) {
      Node* block = head;
      head = block->next;
      return block;
    }
    return ::operator new(kBlockSize);
  }

  static void deallocate(void* p, std::size_t n, std::size_t align) noexcept {
    if (align > alignof(std::max_align_t)) {
      ::operator delete(p, std::align_val_t(align));
      return;
    }
    if (n > kBlockSize) {
      ::operator delete(p);
      return;
    }
    Node* block = static_cast<Node*>(p);
    block->next = free_list();
    free_list() = block;
  }

 private:
  struct Node {
    Node* next;
  };
  /// Owns the thread's cached blocks: a thread that exits (a stopped event
  /// loop) hands them back instead of leaking them.
  struct FreeList {
    Node* head = nullptr;
    FreeList() = default;
    FreeList(const FreeList&) = delete;
    FreeList& operator=(const FreeList&) = delete;
    ~FreeList() {
      while (head != nullptr) {
        Node* next = head->next;
        ::operator delete(head);
        head = next;
      }
    }
  };
  static Node*& free_list() {
    thread_local FreeList list;
    return list.head;
  }
};

}  // namespace detail

class Task {
 public:
  /// Captures up to this many bytes are stored inline (no allocation).
  static constexpr std::size_t kInlineSize = 48;

  Task() noexcept = default;
  Task(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  /// Implicit by design: call sites pass lambdas exactly as they passed
  /// them to the std::function-based API.
  template <class F,
            std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, Task> &&
                    std::is_invocable_r_v<void, std::decay_t<F>&>,
                int> = 0>
  Task(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      void* mem = detail::TaskSlab::allocate(sizeof(Fn), alignof(Fn));
      ::new (mem) Fn(std::forward<F>(f));
      ::new (static_cast<void*>(buf_)) void*(mem);
      ops_ = &kHeapOps<Fn>;
    }
  }

  Task(Task&& other) noexcept : ops_(other.ops_) {
    if (ops_ == nullptr) return;
    if (ops_->relocate == nullptr) {
      // Trivially relocatable payload (or a heap pointer): raw byte copy.
      std::memcpy(buf_, other.buf_, kInlineSize);
    } else {
      ops_->relocate(buf_, other.buf_);
    }
    other.ops_ = nullptr;
  }

  Task& operator=(Task&& other) noexcept {
    if (this == &other) return *this;
    reset();
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      if (ops_->relocate == nullptr) {
        std::memcpy(buf_, other.buf_, kInlineSize);
      } else {
        ops_->relocate(buf_, other.buf_);
      }
      other.ops_ = nullptr;
    }
    return *this;
  }

  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;

  ~Task() { reset(); }

  void operator()() { ops_->invoke(buf_); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    /// Move-construct into dst from src and destroy src. Null means the
    /// payload is relocatable by memcpy (trivial capture or heap pointer).
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* storage) noexcept;  // null: nothing to destroy
  };

  template <class Fn>
  static constexpr bool fits_inline() {
    return sizeof(Fn) <= kInlineSize && alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  template <class Fn>
  static void inline_invoke(void* storage) {
    (*std::launder(reinterpret_cast<Fn*>(storage)))();
  }
  template <class Fn>
  static void inline_relocate(void* dst, void* src) noexcept {
    Fn* from = std::launder(reinterpret_cast<Fn*>(src));
    ::new (dst) Fn(std::move(*from));
    from->~Fn();
  }
  template <class Fn>
  static void inline_destroy(void* storage) noexcept {
    std::launder(reinterpret_cast<Fn*>(storage))->~Fn();
  }

  template <class Fn>
  static Fn* heap_target(void* storage) {
    return static_cast<Fn*>(*std::launder(reinterpret_cast<void**>(storage)));
  }
  template <class Fn>
  static void heap_invoke(void* storage) {
    (*heap_target<Fn>(storage))();
  }
  template <class Fn>
  static void heap_destroy(void* storage) noexcept {
    Fn* target = heap_target<Fn>(storage);
    target->~Fn();
    detail::TaskSlab::deallocate(target, sizeof(Fn), alignof(Fn));
  }

  template <class Fn>
  static constexpr Ops kInlineOps{
      &inline_invoke<Fn>,
      std::is_trivially_copyable_v<Fn> ? nullptr : &inline_relocate<Fn>,
      std::is_trivially_destructible_v<Fn> ? nullptr : &inline_destroy<Fn>};

  template <class Fn>
  static constexpr Ops kHeapOps{&heap_invoke<Fn>, nullptr, &heap_destroy<Fn>};

  void reset() noexcept {
    if (ops_ != nullptr && ops_->destroy != nullptr) ops_->destroy(buf_);
    ops_ = nullptr;
  }

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char buf_[kInlineSize];
};

}  // namespace mrp::runtime
