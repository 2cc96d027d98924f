#ifndef TDR_SIM_CALLBACK_H_
#define TDR_SIM_CALLBACK_H_

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace tdr::sim {

/// Move-only callable wrapper with a 64-byte inline buffer.
///
/// std::function was the event core's dominant steady-state cost: its
/// small-object buffer is 16 bytes on libstdc++, so nearly every
/// scheduled event (a `this` pointer plus a couple of ids, or a nested
/// functor) heap-allocated on schedule and freed on fire/cancel.
/// Callback inlines captures up to kInlineSize bytes and only falls
/// back to the heap beyond that; moving it relocates the inline buffer
/// and never allocates.
///
/// The wrapper is deliberately minimal: no target_type, no copying, no
/// allocator support. Invoking an empty Callback is undefined (the
/// simulator never stores empty callbacks in live events).
class Callback {
 public:
  /// Large enough for every capture list in the simulator's hot paths
  /// (network delivery closures carry a 32-byte std::function plus ids).
  static constexpr std::size_t kInlineSize = 64;

  Callback() noexcept = default;
  Callback(std::nullptr_t) noexcept {}  // NOLINT: match std::function

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, Callback> &&
                                        std::is_invocable_r_v<void, D&>>>
  Callback(F&& f) {  // NOLINT: implicit, like std::function
    if constexpr (FitsInline<D>()) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      *reinterpret_cast<D**>(buf_) = new D(std::forward<F>(f));
      ops_ = &kHeapOps<D>;
    }
  }

  Callback(Callback&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      Relocate(other);
      other.ops_ = nullptr;
    }
  }

  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      Reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        Relocate(other);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  Callback& operator=(std::nullptr_t) noexcept {
    Reset();
    return *this;
  }

  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;

  ~Callback() { Reset(); }

  void operator()() { ops_->invoke(buf_); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

 private:
  // A null `relocate` means "memcpy the first `size` bytes of the inline
  // buffer" — true for every trivially-copyable capture AND for the heap
  // fallback (the buffer then holds just an owning pointer). Copying
  // only the stored bytes never reads the unused tail of the buffer. A
  // null `destroy` means trivially destructible. The nulls matter:
  // moving and destroying callbacks happens several times per event, and
  // a predictable load-test-skip beats an indirect call through a
  // per-type thunk.
  struct Ops {
    void (*invoke)(void* self);
    // Move-constructs *src into dst and destroys *src (null: memcpy).
    void (*relocate)(void* src, void* dst) noexcept;
    void (*destroy)(void* self) noexcept;  // null: trivial
    std::size_t size;  // bytes of buf_ in use
  };

  template <typename D>
  static constexpr bool FitsInline() {
    return sizeof(D) <= kInlineSize &&
           alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  template <typename D>
  static constexpr Ops kInlineOps{
      [](void* self) { (*static_cast<D*>(self))(); },
      std::is_trivially_copyable_v<D>
          ? nullptr
          : +[](void* src, void* dst) noexcept {
              D* from = static_cast<D*>(src);
              ::new (dst) D(std::move(*from));
              from->~D();
            },
      std::is_trivially_destructible_v<D>
          ? nullptr
          : +[](void* self) noexcept { static_cast<D*>(self)->~D(); },
      std::is_empty_v<D> ? 0 : sizeof(D),  // an empty lambda has no state
  };

  template <typename D>
  static constexpr Ops kHeapOps{
      [](void* self) { (**static_cast<D**>(self))(); },
      nullptr,  // relocating an owning pointer is a copy of the buffer
      [](void* self) noexcept { delete *static_cast<D**>(self); },
      sizeof(D*),
  };

  void Relocate(Callback& other) noexcept {
    if (ops_->relocate != nullptr) {
      ops_->relocate(other.buf_, buf_);
    } else {
      std::memcpy(buf_, other.buf_, ops_->size);
    }
  }

  void Reset() noexcept {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineSize];
  const Ops* ops_ = nullptr;
};

}  // namespace tdr::sim

#endif  // TDR_SIM_CALLBACK_H_
