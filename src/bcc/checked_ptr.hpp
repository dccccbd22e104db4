// checked_ptr<T>: the KGCC-instrumented pointer.
//
// KGCC inserts a runtime check before "all operations that can potentially
// cause bounds violations, like pointer arithmetic, string operations,
// memory copying" (paper §3.4). We cannot patch the compiler, so this
// template emits the same calls at the same points:
//   * operator*/operator[]/operator->  ->  Runtime::check_access
//   * operator+/-/++/--               ->  Runtime::check_arith (OOB peers)
//
// A checked_ptr carries a CheckSite shared by all pointers derived from
// it, giving the bounds-cache (CSE analogue) and dynamic deinstrumentation
// their per-site state.
#pragma once

#include <cstddef>

#include "bcc/runtime.hpp"

namespace usk::bcc {

template <typename T>
class checked_ptr {
 public:
  checked_ptr() = default;
  checked_ptr(T* p, Runtime* rt, CheckSite* site)
      : p_(p), rt_(rt), site_(site) {}

  // --- dereference (bounds-checked) ---------------------------------------
  T& operator*() const {
    rt_->check_access(p_, sizeof(T), site_);
    return *p_;
  }
  T* operator->() const {
    rt_->check_access(p_, sizeof(T), site_);
    return p_;
  }
  T& operator[](std::size_t i) const {
    rt_->check_access(p_ + i, sizeof(T), site_);
    return p_[i];
  }

  // --- pointer arithmetic (peer-checked) -----------------------------------
  checked_ptr operator+(std::ptrdiff_t n) const {
    rt_->check_arith(p_, n * static_cast<std::ptrdiff_t>(sizeof(T)), p_ + n);
    return checked_ptr(p_ + n, rt_, site_);
  }
  checked_ptr operator-(std::ptrdiff_t n) const { return *this + (-n); }
  checked_ptr& operator+=(std::ptrdiff_t n) {
    *this = *this + n;
    return *this;
  }
  checked_ptr& operator++() { return *this += 1; }
  checked_ptr& operator--() { return *this += -1; }

  std::ptrdiff_t operator-(const checked_ptr& o) const { return p_ - o.p_; }

  // --- comparisons -----------------------------------------------------------
  bool operator==(const checked_ptr& o) const { return p_ == o.p_; }
  bool operator!=(const checked_ptr& o) const { return p_ != o.p_; }
  explicit operator bool() const { return p_ != nullptr; }

  /// Escape hatch for trusted code (frees, reinterpretation). Using raw()
  /// is exactly the "not compiled with BCC" boundary the paper discusses.
  [[nodiscard]] T* raw() const { return p_; }
  [[nodiscard]] Runtime* runtime() const { return rt_; }
  [[nodiscard]] CheckSite* site() const { return site_; }

 private:
  T* p_ = nullptr;
  Runtime* rt_ = nullptr;
  CheckSite* site_ = nullptr;
};

/// Pointer policy for KGCC-instrumented builds of JournalFs and other
/// policy-templated kernel modules.
struct BccPtrPolicy {
  template <typename T>
  using ptr = checked_ptr<T>;

  template <typename T>
  static checked_ptr<T> alloc_array(std::size_t n) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "BccPtrPolicy arrays must be trivially copyable");
    Runtime& rt = Runtime::instance();
    void* mem = rt.bcc_malloc(n * sizeof(T), "bcc_policy", 0);
    __builtin_memset(mem, 0, n * sizeof(T));
    return checked_ptr<T>(static_cast<T*>(mem), &rt, rt.make_site());
  }

  template <typename T>
  static void free_array(checked_ptr<T> p, std::size_t /*n*/) {
    if (p.raw() != nullptr) Runtime::instance().bcc_free(p.raw());
  }

  /// Reinterpret a byte region as T[] within the same registered object;
  /// bounds checks still resolve to the owning allocation.
  template <typename T>
  static checked_ptr<T> cast_bytes(checked_ptr<std::uint8_t> p,
                                   std::size_t /*n*/) {
    Runtime& rt = Runtime::instance();
    return checked_ptr<T>(reinterpret_cast<T*>(p.raw()), &rt, rt.make_site());
  }

  /// Plain pointer to the `n` elements at `p`, for one bulk memcpy: the
  /// whole range is bounds-checked once, as KGCC checks a memory copy.
  template <typename T>
  static T* raw_range(checked_ptr<T> p, std::size_t n) {
    p.runtime()->check_access(p.raw(), n * sizeof(T), p.site());
    return p.raw();
  }

  static constexpr const char* kName = "kgcc";
};

}  // namespace usk::bcc
