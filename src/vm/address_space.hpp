// Software MMU: page tables, permission bits, a small TLB, and page faults.
//
// Instrumented kernel code performs loads and stores *through* an
// AddressSpace, so a guardian PTE (Kefence, §3.2) faults exactly the way
// x86 hardware faults: the access is trapped before any byte moves, the
// registered fault handler runs, and the access is retried or aborted
// depending on what the handler did.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <unordered_map>

#include "base/errno.hpp"
#include "base/work.hpp"
#include "vm/phys.hpp"

namespace usk::vm {

/// Page-table entry. `guard` marks a Kefence guardian page: it exists (so
/// it is distinguishable from an unmapped hole) but all access faults.
struct Pte {
  Pfn pfn = kInvalidPfn;
  bool present = false;
  bool readable = false;
  bool writable = false;
  bool guard = false;
};

enum class Access { kRead, kWrite };

enum class FaultKind {
  kNotMapped,   ///< no PTE for the page
  kProtection,  ///< PTE present but permission denied
  kGuard,       ///< access hit a guardian PTE
};

struct Fault {
  VAddr addr = 0;
  Access access = Access::kRead;
  FaultKind kind = FaultKind::kNotMapped;
};

/// What the fault handler did about it.
enum class FaultResolution {
  kRetry,  ///< handler repaired the mapping; re-execute the access
  kFatal,  ///< unrecoverable; the access returns EFAULT
};

using FaultHandler = std::function<FaultResolution(const Fault&)>;

struct TlbStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t flushes = 0;
  std::uint64_t walks = 0;  ///< page-table walks (== misses that walked)
};

struct AsStats {
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t faults = 0;
  std::uint64_t fatal_faults = 0;
};

/// One simulated kernel virtual address space (the vmalloc area lives
/// here). Not thread-safe by design: the simulated kernel serializes
/// page-table updates, mirroring mm->page_table_lock.
class AddressSpace {
 public:
  explicit AddressSpace(PhysMem& phys, std::string name = "kernel-vm");

  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  // --- page-table manipulation -------------------------------------------
  void map_page(VAddr va, Pfn pfn, bool readable, bool writable);
  /// Install a guardian PTE (no frame, no permissions; access faults).
  void map_guard(VAddr va);
  /// Replace a guardian PTE with a real mapping (Kefence auto-map mode).
  Errno promote_guard(VAddr va, bool readable, bool writable);
  void unmap_page(VAddr va);
  [[nodiscard]] const Pte* lookup(VAddr va) const;

  // --- "hardware" access path --------------------------------------------
  /// Copy `n` bytes out of the address space; may span pages.
  Errno load(VAddr va, void* dst, std::size_t n);
  /// Copy `n` bytes into the address space; may span pages.
  Errno store(VAddr va, const void* src, std::size_t n);
  /// memset inside the address space.
  Errno fill(VAddr va, std::uint8_t value, std::size_t n);

  template <typename T>
  Result<T> read(VAddr va) {
    static_assert(std::is_trivially_copyable_v<T>);
    T out{};
    Errno e = load(va, &out, sizeof(T));
    if (e != Errno::kOk) return e;
    return out;
  }

  template <typename T>
  Errno write(VAddr va, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    return store(va, &value, sizeof(T));
  }

  // --- fault plumbing ------------------------------------------------------
  void set_fault_handler(FaultHandler handler) { handler_ = std::move(handler); }
  void clear_fault_handler() { handler_ = nullptr; }

  // --- TLB -----------------------------------------------------------------
  void tlb_flush();
  /// Charge `units` of ALU work per TLB miss on `engine` (models the cost
  /// of a hardware page walk; used by the Kefence TLB-contention study).
  void set_tlb_miss_cost(base::WorkEngine* engine, std::uint32_t units) {
    miss_engine_ = engine;
    miss_units_ = units;
  }

  [[nodiscard]] const TlbStats& tlb_stats() const { return tlb_; }
  [[nodiscard]] const AsStats& stats() const { return stats_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] PhysMem& phys() { return phys_; }

 private:
  struct TlbEntry {
    std::uint64_t vpn = ~0ull;
    Pfn pfn = kInvalidPfn;
    bool readable = false;
    bool writable = false;
    bool valid = false;
  };
  static constexpr std::size_t kTlbEntries = 64;

  /// Translate one page for `access`; fills *pfn. Runs the fault handler as
  /// needed and retries a bounded number of times.
  Errno translate(VAddr va, Access access, Pfn* pfn);

  /// One translation attempt, no fault handling. Returns kOk or raises
  /// `fault`.
  Errno try_translate(VAddr va, Access access, Pfn* pfn, Fault* fault);

  void tlb_insert(std::uint64_t vpn, const Pte& pte);
  void tlb_invalidate(std::uint64_t vpn);

  PhysMem& phys_;
  std::string name_;
  std::unordered_map<std::uint64_t, Pte> pt_;  // keyed by vpn
  std::array<TlbEntry, kTlbEntries> tlb_array_{};
  FaultHandler handler_;
  TlbStats tlb_;
  AsStats stats_;
  base::WorkEngine* miss_engine_ = nullptr;
  std::uint32_t miss_units_ = 0;
};

}  // namespace usk::vm
