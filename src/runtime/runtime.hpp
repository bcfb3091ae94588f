// The runtime abstraction layer: everything a protocol object (ring
// handler, multiring node, replica, client, registry) needs from its host —
// identity, clock, randomness, message transport, timers, CPU accounting,
// liveness observation, crash-surviving stable slots and durable writes —
// behind one interface with two backends:
//
//   * sim::SimRuntime    — per-process adapter over the deterministic
//     discrete-event engine (sim::Env). Timers are epoch-guarded (they die
//     with a crash), sends traverse the simulated network, now() is
//     simulated time, stable slots live in the Env's crash-surviving map.
//   * runtime::ThreadRuntime — one event-loop thread per process over
//     nonblocking loopback TCP (thread_runtime.hpp). now() is a steady
//     clock, timers live in a per-loop heap, stable slots can be backed by
//     mmap'd files.
//
// Protocol headers depend only on this interface; which backend hosts them
// is a deployment decision (sim tests and benches vs. mrpd/fig11_realnet).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <typeindex>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "runtime/message.hpp"
#include "runtime/task.hpp"

namespace mrp::runtime {

/// Handle for a scheduled timer; cancel() makes the callback a no-op if it
/// has not fired yet. Ids are unique per Runtime instance, never reused.
using TimerId = std::uint64_t;
constexpr TimerId kNoTimer = 0;

/// Type-erased crash-surviving storage cell. The slot remembers the type it
/// was created with: reusing a key with a different T would otherwise
/// static_cast onto someone else's object — silent undefined behaviour — so
/// stable<T>() aborts loudly instead (the Env::stable<T> contract).
struct StableSlot {
  std::shared_ptr<void> ptr;
  std::type_index type = std::type_index(typeid(void));
};

class Runtime {
 public:
  virtual ~Runtime() = default;

  /// This process's deployment-wide identifier (negative = oracle, e.g. the
  /// registry's notification sender).
  virtual ProcessId id() const = 0;

  /// Monotonic time in nanoseconds since the start of the run (simulated
  /// time or a steady wall clock, depending on the backend).
  virtual TimeNs now() const = 0;

  /// The run's random stream (deterministic: seeded per run; the sim
  /// backend shares the engine's root stream so draws stay event-ordered).
  virtual Rng& rng() = 0;

  /// Sends m to `to`. Delivery is at-most-once and may fail silently (the
  /// receiver is down, partitioned away, or its connection broke) — exactly
  /// the simulated network's contract, which the protocols already tolerate.
  virtual void send(ProcessId to, MessagePtr m) = 0;

  /// One-shot timer after `delay`; implicitly cancelled if this process
  /// crashes first. Returns a handle for cancel().
  virtual TimerId schedule(TimeNs delay, Task fn) = 0;

  /// Cancels a pending timer (no-op if it already fired or was cancelled).
  virtual void cancel(TimerId timer) = 0;

  /// Wraps fn so that it is a no-op if this process has crashed (or crashed
  /// and recovered) by the time it runs. Use for completion callbacks that
  /// outlive the call site (disk writes).
  virtual Task guard(Task fn) = 0;

  /// Adds CPU cost to the event being handled (serializes this process in
  /// the sim's CPU model; free on real hardware, where the cost is real).
  virtual void charge(TimeNs cpu) = 0;

  /// Adds CPU cost on a background lane (metrics only).
  virtual void charge_background(TimeNs cpu) = 0;

  /// Best-effort liveness of another process (the registry's failure
  /// detector input: exact in the sim, thread-liveness in the thread
  /// backend).
  virtual bool peer_alive(ProcessId p) const = 0;

  /// The raw crash-surviving storage cell for `key` (scoped to this
  /// process). Use the typed stable<T>() accessor instead.
  virtual StableSlot& stable_record(const std::string& key) = 0;

  /// Durably writes `bytes` bytes to this process's storage device
  /// `disk_index`. `done` (nullable) fires on this process's loop, after the
  /// bytes are durable, in issue order. The sim backend models one FIFO
  /// device per index and completes later in simulated time. The thread
  /// backend group-commits a loop turn's writes with one fdatasync and runs
  /// the completions at the end of that turn, in issue order across all
  /// indexes; with no storage dir it runs `done` inline.
  virtual void durable_write(int disk_index, std::size_t bytes, Task done) = 0;

  // --- typed stable slots (the Env::stable<T> contract) ---

  /// Typed named slot surviving crashes of this process; default-
  /// constructed on first use, aborts if reused with a different type.
  template <class T>
  T& stable(const std::string& key) {
    StableSlot& slot = stable_record(key);
    if (!slot.ptr) init_slot<T>(key, slot);
    MRP_CHECK_MSG(slot.type == std::type_index(typeid(T)),
                  "stable slot reused with a different type");
    return *static_cast<T*>(slot.ptr.get());
  }

  // --- timer helpers (shared across backends) ---

  /// One-shot timer (schedule() without keeping the handle).
  void after(TimeNs delay, Task fn) { schedule(delay, std::move(fn)); }

  /// Repeating timer with fixed period, first firing after one period.
  void every(TimeNs period, Task fn);

  /// Repeating timer gated on `active`: once *active turns false the chain
  /// stops re-arming and fn is never invoked again — for timers owned by a
  /// component (e.g. a detached ring handler) that can outlive its purpose
  /// while the process keeps running.
  void every_while(TimeNs period, std::shared_ptr<const bool> active, Task fn);

 protected:
  /// Backend hook for file-backed stable slots: returns `size` bytes of
  /// persistent memory for `key` (or null to fall back to the heap);
  /// *fresh is set when the backing store was just created (the caller
  /// value-initializes it). Only consulted for trivially copyable types.
  virtual void* stable_map(const std::string& key, std::size_t size,
                           bool* fresh) {
    (void)key;
    (void)size;
    (void)fresh;
    return nullptr;
  }

 private:
  template <class T>
  void init_slot(const std::string& key, StableSlot& slot) {
    slot.type = std::type_index(typeid(T));
    if constexpr (std::is_trivially_copyable_v<T>) {
      bool fresh = false;
      if (void* mapped = stable_map(key, sizeof(T), &fresh)) {
        if (fresh) ::new (mapped) T{};
        // The backend owns the mapping's lifetime; the slot only aliases it.
        slot.ptr = std::shared_ptr<void>(mapped, [](void*) {});
        return;
      }
    }
    slot.ptr = std::shared_ptr<void>(
        new T(), [](void* p) { delete static_cast<T*>(p); });
  }

  void rearm(TimeNs period, std::shared_ptr<Task> fn);
  void rearm_while(TimeNs period, std::shared_ptr<const bool> active,
                   std::shared_ptr<Task> fn);
};

}  // namespace mrp::runtime
