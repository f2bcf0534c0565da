#ifndef TRINITY_STORAGE_MEMORY_TRUNK_H_
#define TRINITY_STORAGE_MEMORY_TRUNK_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/slice.h"
#include "common/spinlock.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/cell_codec.h"
#include "storage/cold_tier.h"
#include "storage/trunk_index.h"

namespace trinity::storage {

namespace internal {
#ifndef NDEBUG
/// Debug-only tracking of the striped cell locks held by the current thread.
/// Two cells can hash to the same of the 256 stripes, so a thread that holds
/// a ConstAccessor and then acquires the cell lock of *another* cell on the
/// same stripe self-deadlocks. Release paths and checked acquisition paths
/// keep this list in sync so the deadlock is caught as an assertion instead
/// of a hang (see docs/concurrent_reads.md).
inline thread_local std::vector<const void*> held_cell_stripes;

inline bool StripeHeldByThisThread(const void* stripe) {
  return std::find(held_cell_stripes.begin(), held_cell_stripes.end(),
                   stripe) != held_cell_stripes.end();
}
inline void NoteStripeAcquired(const void* stripe) {
  held_cell_stripes.push_back(stripe);
}
inline void NoteStripeReleased(const void* stripe) {
  auto it = std::find(held_cell_stripes.rbegin(), held_cell_stripes.rend(),
                      stripe);
  if (it != held_cell_stripes.rend()) {
    held_cell_stripes.erase(std::next(it).base());
  }
}
#endif  // NDEBUG
}  // namespace internal

/// A memory trunk: one shard of the memory cloud's storage, implementing the
/// paper's circular memory management (§6.1).
///
/// The trunk reserves a fixed virtual address range up front (mmap with
/// PROT_NONE) and commits pages on demand as the append head advances —
/// mirroring the paper's reserve/commit scheme on Windows. Key-value pairs
/// are appended log-style at `append head`; the live region is
/// [committed tail, append head) in logical (monotonically increasing)
/// offsets, mapped onto the physical range modulo the trunk capacity, so the
/// heads perform an "endless circular movement" through the reservation.
///
/// Deleting or relocating a pair leaves a dead entry; Defragment() is the
/// compaction pass that re-appends live pairs at the head, releases the freed
/// pages at the tail back to the OS, and trims unused *short-lived
/// reservations* — the extra capacity granted on expansion so that growing
/// cells (e.g. adjacency lists under edge inserts) do not relocate on every
/// append. A reservation lives only until the next defragmentation pass,
/// exactly as in the paper.
///
/// Memory hierarchy (docs/memory_hierarchy.md): each live entry carries a
/// CellFormat tag in the spare top bits of its header's capacity field.
/// With Options::compress_adjacency set, node cells are stored delta-varint
/// encoded (CellCodec) and decoded transparently on read. With a
/// memory_budget plus a cold TFS configured, the defragment pass doubles as
/// the clock eviction pass: cold cells (second-chance ref bits cleared) are
/// spilled to ColdTier pages, and any access to a spilled cell faults it
/// back in under the exclusive lock. The trunk index covers resident cells
/// only; a miss consults the cold tier's page table before reporting
/// NotFound.
///
/// Concurrency: a trunk-level reader/writer lock protects the index and the
/// ring metadata. Read operations (GetCell / Access / Contains / GetCellSize
/// and the const scans) take the shared side, so concurrent readers scale
/// with threads; mutators, Defragment() and fault-ins take the exclusive
/// side. Each cell additionally has a (striped) spin lock that zero-copy
/// accessors and the defragmenter acquire, which is what pins a cell's
/// physical location while it is being accessed (§3): an accessor keeps its
/// stripe locked after the shared lock is dropped, and defrag — which runs
/// exclusively — TryLocks each cell and skips pinned ones (eviction does the
/// same, so a pinned cell can never be spilled). The per-cell spin locks are
/// striped 256 ways, so two distinct cells can share a stripe; acquiring a
/// cell lock while this thread already holds an accessor on the same stripe
/// would self-deadlock and is rejected by a debug assertion (see
/// docs/concurrent_reads.md).
class MemoryTrunk {
 public:
  struct Options {
    /// Reserved virtual size in bytes (the paper reserves 2 GB; scale down
    /// for tests). Rounded up to a page multiple.
    std::uint64_t capacity = 64ull << 20;
    /// Extra capacity granted on relocation-for-expansion, as a percentage
    /// of the new size (the short-lived reservation).
    int reservation_pct = 50;

    /// Store adjacency-list (node) cells delta-varint encoded when that is
    /// strictly smaller; reads decode transparently. Non-node or unsorted
    /// payloads fall back to raw storage per cell.
    bool compress_adjacency = false;
    /// Resident-byte budget (ring bytes, head - tail). 0 disables the cold
    /// tier: the trunk is fully resident, exactly the pre-hierarchy
    /// behavior. When exceeded, the defrag pass spills clock-cold cells to
    /// `cold_tfs` until usage drops below ~7/8 of the budget. Must be well
    /// below `capacity` so eviction can actually free ring space.
    std::uint64_t memory_budget = 0;
    /// Backing store for spilled pages; required when memory_budget > 0.
    tfs::Tfs* cold_tfs = nullptr;
    /// TFS path prefix for this trunk's cold pages. A process-wide instance
    /// counter is appended so trunk reincarnations and replicas never
    /// collide on page files.
    std::string cold_prefix = "cold";
    /// Target payload bytes per cold page (one sequential read per fault).
    std::uint64_t cold_page_bytes = 256 << 10;
  };

  struct Stats {
    std::uint64_t live_cells = 0;  ///< Live cells (resident + spilled).
    std::uint64_t live_bytes = 0;  ///< Stored payload bytes resident in RAM.
    std::uint64_t reserved_slack = 0;    ///< Reservation bytes not yet used.
    std::uint64_t dead_bytes = 0;        ///< Bytes held by dead entries.
    std::uint64_t used_bytes = 0;        ///< head - tail.
    std::uint64_t resident_bytes = 0;    ///< Live entry spans in RAM
                                         ///< (headers + payload + slack).
    std::uint64_t committed_bytes = 0;   ///< Pages currently committed.
    std::uint64_t capacity = 0;
    std::uint64_t defrag_passes = 0;
    std::uint64_t cells_moved = 0;
    std::uint64_t expansions_in_place = 0;
    std::uint64_t expansions_relocated = 0;
    /// Memory-hierarchy meters:
    std::uint64_t compressed_cells = 0;  ///< Resident cells stored kAdjDelta.
    std::uint64_t compressed_bytes = 0;  ///< Stored bytes of those cells.
    std::uint64_t spilled_cells = 0;     ///< Cells currently in the cold tier.
    std::uint64_t spilled_bytes = 0;     ///< Stored bytes currently spilled.
    std::uint64_t cells_evicted = 0;     ///< Cumulative spills.
    std::uint64_t cells_faulted = 0;     ///< Cumulative fault-ins.
    std::uint64_t cold_bytes_written = 0;  ///< Cumulative bytes spilled out.
    std::uint64_t cold_bytes_read = 0;     ///< Cumulative bytes faulted in.
    /// Read-path observability (relaxed-atomic internally; snapshot here):
    std::uint64_t read_lock_contended = 0;   ///< Shared acquisitions blocked.
    std::uint64_t write_lock_contended = 0;  ///< Exclusive acquis. blocked.
    std::uint64_t cell_lock_contended = 0;   ///< Stripe locks not free on try.

    /// Field-wise sum (aggregating over trunks or machines).
    Stats& operator+=(const Stats& o);
  };

  /// Creates a trunk. Fails with OutOfMemory if the reservation cannot be
  /// made.
  static Status Create(const Options& options,
                       std::unique_ptr<MemoryTrunk>* out);

  ~MemoryTrunk();
  MemoryTrunk(const MemoryTrunk&) = delete;
  MemoryTrunk& operator=(const MemoryTrunk&) = delete;

  /// Adds a new cell. Fails with AlreadyExists if the id is present.
  Status AddCell(CellId id, Slice payload);

  /// Adds or replaces a cell. In-place when the existing entry has room.
  Status PutCell(CellId id, Slice payload);

  /// Copies the (decoded) cell payload into *out. Faults a spilled cell
  /// back in.
  Status GetCell(CellId id, std::string* out) const;

  bool Contains(CellId id) const;

  /// Logical (decoded) payload size. Answered from the header varint or the
  /// cold page table — never reads cold storage.
  Status GetCellSize(CellId id, std::uint64_t* size) const;

  /// Removes a cell; its bytes are reclaimed by the next defrag pass.
  Status RemoveCell(CellId id);

  /// Appends bytes to an existing cell (the hot path for growing adjacency
  /// lists). Uses the reservation if available; relocates with a fresh
  /// reservation otherwise. A compressed cell is materialized to raw first
  /// (defrag re-compresses it later); a spilled cell is faulted in.
  Status AppendToCell(CellId id, Slice suffix);

  /// Overwrites `bytes` at `offset` within the (decoded) cell payload
  /// (in-place field update used by cell accessors). offset+len must lie
  /// inside the payload.
  Status WriteAt(CellId id, std::uint64_t offset, Slice bytes);

  /// Read access pinning the cell. For raw resident cells this is zero-copy:
  /// the accessor holds the cell's spin lock, pinning the cell against
  /// defragmentation (and eviction) until destroyed. Compressed cells are
  /// materialized into a buffer owned by the accessor instead — no lock is
  /// held and data() points at the decoded copy. Do not call mutating trunk
  /// methods for the same *lock stripe* (any cell may share the stripe)
  /// while holding a pinning accessor on the same thread — debug builds
  /// assert on such re-entrant stripe acquisition. Lock-free reads
  /// (GetCell / Contains / GetCellSize) stay safe while holding an accessor.
  class ConstAccessor {
   public:
    ConstAccessor() = default;
    ~ConstAccessor() { Release(); }
    ConstAccessor(ConstAccessor&& other) noexcept { *this = std::move(other); }
    ConstAccessor& operator=(ConstAccessor&& other) noexcept {
      Release();
      lock_ = other.lock_;
      data_ = other.data_;
      owned_ = std::move(other.owned_);
      other.lock_ = nullptr;
      other.data_ = Slice();
      return *this;
    }
    ConstAccessor(const ConstAccessor&) = delete;
    ConstAccessor& operator=(const ConstAccessor&) = delete;

    Slice data() const { return data_; }
    bool valid() const { return lock_ != nullptr || owned_ != nullptr; }

   private:
    friend class MemoryTrunk;
    void Release() {
      if (lock_ != nullptr) {
#ifndef NDEBUG
        internal::NoteStripeReleased(lock_);
#endif
        lock_->Unlock();
        lock_ = nullptr;
      }
      owned_.reset();
      data_ = Slice();
    }
    SpinLock* lock_ = nullptr;
    Slice data_;
    /// Decoded payload for compressed cells (materialize-on-pin).
    std::unique_ptr<std::string> owned_;
  };

  Status Access(CellId id, ConstAccessor* accessor) const;

  /// One full compaction pass (doubles as the eviction pass when over
  /// budget). Returns the number of bytes reclaimed.
  std::uint64_t Defragment();

  Stats stats() const;

  /// Lock-free read of the stripe-lock contention counter. Unlike stats()
  /// it never touches the trunk lock, so it is safe to poll from a thread
  /// that holds a ConstAccessor even while a writer owns the exclusive side
  /// (stats() would deadlock there: the writer spins on the accessor's
  /// stripe while holding the lock stats() needs).
  std::uint64_t cell_lock_contended() const noexcept {
    return cell_lock_contended_.load(std::memory_order_relaxed);
  }

  /// Number of live cells (resident + spilled).
  std::uint64_t cell_count() const;

  /// Collects the ids of all live cells, spilled included, in sorted order
  /// — deterministic regardless of residency, so compute engines that
  /// accumulate floating point in enumeration order stay bitwise
  /// reproducible across memory configurations. Used by compute engines to
  /// enumerate the vertices hosted on a machine.
  std::vector<CellId> CellIds() const;

  /// Serializes all live cells for persistence to TFS. Spilled cells are
  /// read back from their cold pages, so the image is self-contained —
  /// recovery and replica installation need no cold-tier state. Cells are
  /// written in stored form with their format tag (image version 2).
  Status Serialize(std::string* out) const;

  /// Rebuilds a trunk from a Serialize() blob.
  static Status Deserialize(Slice data, const Options& options,
                            std::unique_ptr<MemoryTrunk>* out);

 private:
  // On-media entry layout: header followed by `capacity` payload bytes,
  // padded to 8-byte alignment. `id` is kDeadCell for reclaimable entries
  // and kPadCell for end-of-ring padding. The top two bits of `capacity`
  // hold the CellFormat for live entries (cells are capped at 1 GB), so the
  // header did not grow; pad entries use the full 32 bits (a pad can exceed
  // 1 GB on a large trunk) and dead entries have the bits cleared.
  struct EntryHeader {
    CellId id;
    std::uint32_t size;
    std::uint32_t capacity;
  };
  static_assert(sizeof(EntryHeader) == 16, "entry header must be 16 bytes");

  static constexpr CellId kPadCell = ~static_cast<CellId>(0);
  static constexpr CellId kDeadCell = ~static_cast<CellId>(0) - 1;
  static constexpr std::uint64_t kHeaderSize = sizeof(EntryHeader);
  static constexpr int kLockStripes = 256;
  static constexpr int kRefStripes = 4096;
  static constexpr std::uint32_t kCapacityMask = (1u << 30) - 1;

  static std::uint32_t CapOf(const EntryHeader* hdr) {
    return hdr->capacity & kCapacityMask;
  }
  static CellFormat FormatOf(const EntryHeader* hdr) {
    return static_cast<CellFormat>(hdr->capacity >> 30);
  }
  static void SetCapFormat(EntryHeader* hdr, std::uint64_t capacity,
                           CellFormat format) {
    hdr->capacity = static_cast<std::uint32_t>(capacity) |
                    (static_cast<std::uint32_t>(format) << 30);
  }

  explicit MemoryTrunk(const Options& options);
  Status Init();

  static std::uint64_t RoundUp8(std::uint64_t n) { return (n + 7) & ~7ull; }
  std::uint64_t EntrySpan(std::uint64_t capacity) const {
    return kHeaderSize + RoundUp8(capacity);
  }

  char* PhysPtr(std::uint64_t logical) const {
    return base_ + (logical % capacity_);
  }
  EntryHeader* HeaderAt(std::uint64_t logical) const {
    return reinterpret_cast<EntryHeader*>(PhysPtr(logical));
  }
  Slice StoredAt(std::uint64_t logical) const {
    return Slice(PhysPtr(logical) + kHeaderSize, HeaderAt(logical)->size);
  }
  SpinLock& LockFor(CellId id) const;

  /// Second-chance bit maintenance. Touch is called by the read paths under
  /// the shared lock (relaxed store — clock accuracy is best-effort and
  /// stripe collisions only make eviction more conservative); TestClear is
  /// the clock hand, called under the exclusive lock.
  void TouchRefBit(CellId id) const {
    ref_bits_[InTrunkHash(id) % kRefStripes].store(
        1, std::memory_order_relaxed);
  }
  bool TestClearRefBit(CellId id) {
    return ref_bits_[InTrunkHash(id) % kRefStripes].exchange(
               0, std::memory_order_relaxed) != 0;
  }

  /// Contention-counted lock acquisition. ReadLock/WriteLock wrap mu_;
  /// AcquireCellLock takes the cell's stripe spin lock with the debug
  /// re-entrancy assertion (the returned lock is released either by
  /// ReleaseCellLock or by handing it to a ConstAccessor).
  std::shared_lock<std::shared_mutex> ReadLock() const;
  std::unique_lock<std::shared_mutex> WriteLock() const;
  SpinLock* AcquireCellLock(CellId id) const;
  void ReleaseCellLock(SpinLock* lock) const;

  /// RAII stripe-lock holder for mutators.
  class CellLockGuard {
   public:
    CellLockGuard(const MemoryTrunk* trunk, CellId id)
        : trunk_(trunk), lock_(trunk->AcquireCellLock(id)) {}
    ~CellLockGuard() { trunk_->ReleaseCellLock(lock_); }
    CellLockGuard(const CellLockGuard&) = delete;
    CellLockGuard& operator=(const CellLockGuard&) = delete;

   private:
    const MemoryTrunk* trunk_;
    SpinLock* lock_;
  };

  /// Reserves `span` contiguous physical bytes at the head, inserting ring
  /// padding and triggering auto-defrag as needed. On success *logical is
  /// the entry's logical offset. Caller holds mu_.
  Status AllocateLocked(std::uint64_t span, std::uint64_t* logical);
  Status EnsureCommitted(std::uint64_t phys_begin, std::uint64_t length);
  void DecommitDeadPagesLocked();
  std::uint64_t DefragmentLocked();

  /// A payload in the form the ring stores it.
  struct StoredForm {
    CellFormat format;
    Slice bytes;
  };
  /// The one encode-or-raw decision: delta-varint when compress_adjacency
  /// is set and the codec accepts the payload, else the payload itself.
  /// `buf` backs the returned bytes when they are encoded.
  StoredForm Encode(Slice payload, std::string* buf) const;

  /// Adds (or, with add=false, removes) one live entry's share of the
  /// live/slack/compressed counters. Every change to those counters goes
  /// through here. Caller holds mu_ exclusively.
  void CountEntryLocked(const EntryHeader* hdr, bool add);

  /// Appends `stored` as id's entry with `reserve` spare bytes (the
  /// short-lived reservation), indexes it and counts it. *replaced, when
  /// given, receives the offset the index held for id before, resolved
  /// after the allocation's possible auto-defrag. Caller holds mu_
  /// exclusively.
  Status InstallStoredLocked(CellId id, StoredForm stored,
                             std::uint64_t reserve = 0,
                             std::uint64_t* replaced = nullptr);

  /// Kills the live entry at `offset`: uncounts it and leaves a dead entry
  /// for defrag to reclaim. The caller unindexes it (or re-indexed it).
  void RetireLocked(std::uint64_t offset);

  /// The single store path. Overwrites the entry at `offset` in place when
  /// `stored` fits its capacity; otherwise (or when offset is kNoOffset)
  /// installs a new entry with `reserve` spare bytes, then retires the entry
  /// the index held (or drops a stale cold copy) and enforces the budget.
  /// Caller holds mu_ exclusively and the cell lock of a resident id.
  Status StoreLocked(CellId id, std::uint64_t offset, StoredForm stored,
                     std::uint64_t reserve = 0);

  /// Finds id's resident entry, first faulting a spilled cell back in from
  /// the cold tier (enforcing the budget before, so a read-only fault storm
  /// cannot overrun the ring). NotFound when id is neither resident nor
  /// spilled. Caller holds mu_ exclusively.
  Status ResolveLocked(CellId id, std::uint64_t* offset);

  /// The read path of GetCell and Access: calls read(offset) under the
  /// shared lock for a resident cell, else faults the cell in under the
  /// exclusive lock and calls read there.
  template <typename ReadFn>
  Status ReadResident(CellId id, ReadFn&& read) const;

  /// Decodes (or copies) the stored payload at `logical` into *out. Caller
  /// holds mu_ (either side).
  Status ReadPayloadLocked(std::uint64_t logical, std::string* out) const;

  /// Fills `accessor` for the resident cell at `offset`: zero-copy pin for
  /// raw cells, materialized decode for compressed ones. Caller holds mu_.
  Status PinLocked(CellId id, std::uint64_t offset,
                   ConstAccessor* accessor) const;

  /// Clock eviction: spills cold, unpinned cells until ring usage drops to
  /// `target` bytes or every candidate had its second chance. Caller holds
  /// mu_ exclusively.
  void SpillColdLocked(std::uint64_t target);

  /// Runs a defrag/eviction pass when the ring exceeds the memory budget.
  void MaybeEnforceBudgetLocked();

  const Options options_;
  std::uint64_t capacity_ = 0;  ///< Page-rounded reserved bytes.
  std::uint64_t page_size_ = 0;
  char* base_ = nullptr;

  mutable std::shared_mutex mu_;
  TrunkIndex index_;
  std::uint64_t head_ = 0;  ///< Logical append head.
  std::uint64_t tail_ = 0;  ///< Logical committed tail.
  std::vector<bool> committed_pages_;
  std::uint64_t committed_page_count_ = 0;
  bool in_defrag_ = false;  ///< Guards against recursive auto-defrag.
  mutable Stats stats_;
  mutable std::unique_ptr<SpinLock[]> locks_;
  std::unique_ptr<ColdTier> cold_tier_;  ///< Null when fully resident.
  mutable std::unique_ptr<std::atomic<std::uint8_t>[]> ref_bits_;
  // Lock-contention counters live outside stats_ so the read path can bump
  // them without exclusive ownership; stats() folds them into the snapshot.
  mutable std::atomic<std::uint64_t> read_lock_contended_{0};
  mutable std::atomic<std::uint64_t> write_lock_contended_{0};
  mutable std::atomic<std::uint64_t> cell_lock_contended_{0};
};

}  // namespace trinity::storage

#endif  // TRINITY_STORAGE_MEMORY_TRUNK_H_
