#include "storage/memory_trunk.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cstring>

#include "common/hash.h"
#include "common/logging.h"
#include "common/serializer.h"

namespace trinity::storage {

namespace {

/// Leading u64 of trunk images.
constexpr std::uint64_t kTrunkImageMagic = 0x54524e4b494d4732ull;  // TRNKIMG2

/// Distinguishes cold-page prefixes across trunk incarnations (replicas,
/// recovery reloads) sharing one TFS namespace.
std::atomic<std::uint64_t> cold_tier_instances{0};

}  // namespace

MemoryTrunk::MemoryTrunk(const Options& options) : options_(options) {}

Status MemoryTrunk::Create(const Options& options,
                           std::unique_ptr<MemoryTrunk>* out) {
  if (options.capacity < (1u << 12)) {
    return Status::InvalidArgument("trunk capacity too small");
  }
  if (options.memory_budget > 0 && options.cold_tfs == nullptr) {
    return Status::InvalidArgument("memory budget requires a cold tfs");
  }
  std::unique_ptr<MemoryTrunk> trunk(new MemoryTrunk(options));
  Status s = trunk->Init();
  if (!s.ok()) return s;
  *out = std::move(trunk);
  return Status::OK();
}

Status MemoryTrunk::Init() {
  page_size_ = static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
  capacity_ = (options_.capacity + page_size_ - 1) / page_size_ * page_size_;
  // Reserve the address range without committing physical memory — the
  // paper's "reserve a 2GB virtual memory address space" step.
  void* mem = ::mmap(nullptr, capacity_, PROT_NONE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (mem == MAP_FAILED) {
    return Status::OutOfMemory("cannot reserve trunk address space");
  }
  base_ = static_cast<char*>(mem);
  committed_pages_.assign(capacity_ / page_size_, false);
  locks_ = std::make_unique<SpinLock[]>(kLockStripes);
  ref_bits_ = std::make_unique<std::atomic<std::uint8_t>[]>(kRefStripes);
  if (options_.memory_budget > 0) {
    ColdTier::Options cold;
    cold.tfs = options_.cold_tfs;
    cold.prefix =
        options_.cold_prefix + "/t" +
        std::to_string(
            cold_tier_instances.fetch_add(1, std::memory_order_relaxed));
    cold.page_payload_bytes = options_.cold_page_bytes;
    cold_tier_ = std::make_unique<ColdTier>(std::move(cold));
  }
  return Status::OK();
}

MemoryTrunk::~MemoryTrunk() {
  if (base_ != nullptr) ::munmap(base_, capacity_);
}

SpinLock& MemoryTrunk::LockFor(CellId id) const {
  return locks_[InTrunkHash(id) % kLockStripes];
}

std::shared_lock<std::shared_mutex> MemoryTrunk::ReadLock() const {
  std::shared_lock<std::shared_mutex> lock(mu_, std::try_to_lock);
  if (!lock.owns_lock()) {
    read_lock_contended_.fetch_add(1, std::memory_order_relaxed);
    lock.lock();
  }
  return lock;
}

std::unique_lock<std::shared_mutex> MemoryTrunk::WriteLock() const {
  std::unique_lock<std::shared_mutex> lock(mu_, std::try_to_lock);
  if (!lock.owns_lock()) {
    write_lock_contended_.fetch_add(1, std::memory_order_relaxed);
    lock.lock();
  }
  return lock;
}

SpinLock* MemoryTrunk::AcquireCellLock(CellId id) const {
  SpinLock& lock = LockFor(id);
#ifndef NDEBUG
  TRINITY_CHECK(!internal::StripeHeldByThisThread(&lock),
                "re-entrant striped cell-lock acquisition: this thread "
                "already holds an accessor or cell lock on this stripe and "
                "would self-deadlock (see docs/concurrent_reads.md)");
#endif
  if (!lock.TryLock()) {
    cell_lock_contended_.fetch_add(1, std::memory_order_relaxed);
    lock.Lock();
  }
#ifndef NDEBUG
  internal::NoteStripeAcquired(&lock);
#endif
  return &lock;
}

void MemoryTrunk::ReleaseCellLock(SpinLock* lock) const {
#ifndef NDEBUG
  internal::NoteStripeReleased(lock);
#endif
  lock->Unlock();
}

Status MemoryTrunk::EnsureCommitted(std::uint64_t phys_begin,
                                    std::uint64_t length) {
  if (length == 0) return Status::OK();
  const std::uint64_t first = phys_begin / page_size_;
  const std::uint64_t last = (phys_begin + length - 1) / page_size_;
  for (std::uint64_t page = first; page <= last; ++page) {
    if (committed_pages_[page]) continue;
    if (::mprotect(base_ + page * page_size_, page_size_,
                   PROT_READ | PROT_WRITE) != 0) {
      return Status::OutOfMemory("mprotect commit failed");
    }
    committed_pages_[page] = true;
    ++committed_page_count_;
  }
  return Status::OK();
}

void MemoryTrunk::DecommitDeadPagesLocked() {
  // Compute the physical pages overlapped by the live logical window
  // [tail_, head_) and release everything else back to the OS.
  const std::uint64_t used = head_ - tail_;
  std::vector<bool> live(committed_pages_.size(), false);
  if (used >= capacity_) {
    live.assign(live.size(), true);
  } else if (used > 0) {
    const std::uint64_t lt = tail_ % capacity_;
    const std::uint64_t lh = head_ % capacity_;
    auto mark = [&](std::uint64_t begin, std::uint64_t end) {
      if (begin >= end) return;
      const std::uint64_t first = begin / page_size_;
      const std::uint64_t last = (end - 1) / page_size_;
      for (std::uint64_t p = first; p <= last; ++p) live[p] = true;
    };
    if (lt < lh) {
      mark(lt, lh);
    } else {
      mark(lt, capacity_);
      mark(0, lh);
    }
  }
  for (std::uint64_t page = 0; page < committed_pages_.size(); ++page) {
    if (committed_pages_[page] && !live[page]) {
      char* addr = base_ + page * page_size_;
      ::madvise(addr, page_size_, MADV_DONTNEED);
      ::mprotect(addr, page_size_, PROT_NONE);
      committed_pages_[page] = false;
      --committed_page_count_;
    }
  }
}

Status MemoryTrunk::AllocateLocked(std::uint64_t span,
                                   std::uint64_t* logical) {
  if (span > capacity_) return Status::InvalidArgument("cell too large");
  for (int attempt = 0; attempt < 2; ++attempt) {
    const std::uint64_t phys = head_ % capacity_;
    const std::uint64_t rem = capacity_ - phys;
    const std::uint64_t pad = rem < span ? rem : 0;
    if (head_ - tail_ + pad + span > capacity_) {
      // Compaction can reclaim dead bytes; with a cold tier configured the
      // pass can also spill to make room even when nothing is dead yet.
      const bool can_spill =
          cold_tier_ != nullptr && head_ - tail_ > options_.memory_budget;
      if (attempt == 0 && (stats_.dead_bytes > 0 || can_spill) &&
          !in_defrag_) {
        DefragmentLocked();
        continue;
      }
      return Status::OutOfMemory("trunk full");
    }
    if (pad > 0) {
      if (rem >= kHeaderSize) {
        Status s = EnsureCommitted(phys, kHeaderSize);
        if (!s.ok()) return s;
        EntryHeader* hdr = HeaderAt(head_);
        hdr->id = kPadCell;
        hdr->size = 0;
        // Pads keep the full 32-bit capacity (no format bits): a pad span
        // can exceed the 1 GB cell cap on a large trunk.
        hdr->capacity = static_cast<std::uint32_t>(rem - kHeaderSize);
      }
      // rem < kHeaderSize leaves an implicit pad the scanner skips.
      head_ += pad;
      stats_.dead_bytes += pad;
    }
    Status s = EnsureCommitted(head_ % capacity_, span);
    if (!s.ok()) return s;
    *logical = head_;
    head_ += span;
    return Status::OK();
  }
  return Status::OutOfMemory("trunk full");
}

MemoryTrunk::StoredForm MemoryTrunk::Encode(Slice payload,
                                            std::string* buf) const {
  if (options_.compress_adjacency && CellCodec::EncodeAdjacency(payload, buf)) {
    return {CellFormat::kAdjDelta, Slice(*buf)};
  }
  return {CellFormat::kRaw, payload};
}

void MemoryTrunk::CountEntryLocked(const EntryHeader* hdr, bool add) {
  // Unsigned wraparound: multiplying by ~0 subtracts.
  const std::uint64_t sign = add ? 1 : ~std::uint64_t{0};
  const std::uint64_t size = hdr->size;
  stats_.live_cells += sign;
  stats_.live_bytes += sign * size;
  stats_.reserved_slack += sign * (CapOf(hdr) - size);
  if (FormatOf(hdr) == CellFormat::kAdjDelta) {
    stats_.compressed_cells += sign;
    stats_.compressed_bytes += sign * size;
  }
}

Status MemoryTrunk::InstallStoredLocked(CellId id, StoredForm stored,
                                        std::uint64_t reserve,
                                        std::uint64_t* replaced) {
  const std::uint64_t capacity = stored.bytes.size() + reserve;
  if (capacity > kCapacityMask) {
    return Status::InvalidArgument("cell exceeds 1 GB capacity cap");
  }
  std::uint64_t logical = 0;
  Status s = AllocateLocked(EntrySpan(capacity), &logical);
  if (!s.ok()) return s;
  EntryHeader* hdr = HeaderAt(logical);
  hdr->id = id;
  hdr->size = static_cast<std::uint32_t>(stored.bytes.size());
  SetCapFormat(hdr, capacity, stored.format);
  if (!stored.bytes.empty()) {
    std::memcpy(PhysPtr(logical) + kHeaderSize, stored.bytes.data(),
                stored.bytes.size());
  }
  // Resolved only now: an auto-defrag pass inside the allocation may have
  // moved the entry this one replaces.
  if (replaced != nullptr) *replaced = index_.Find(id);
  index_.Upsert(id, logical);
  CountEntryLocked(hdr, true);
  return Status::OK();
}

void MemoryTrunk::RetireLocked(std::uint64_t offset) {
  EntryHeader* hdr = HeaderAt(offset);
  CountEntryLocked(hdr, false);
  const std::uint64_t cap = CapOf(hdr);
  stats_.dead_bytes += EntrySpan(cap);
  hdr->id = kDeadCell;
  hdr->capacity = static_cast<std::uint32_t>(cap);
}

Status MemoryTrunk::StoreLocked(CellId id, std::uint64_t offset,
                                StoredForm stored, std::uint64_t reserve) {
  if (offset != TrunkIndex::kNoOffset) {
    EntryHeader* hdr = HeaderAt(offset);
    if (stored.bytes.size() <= CapOf(hdr)) {
      // In place; shrink or grow within the existing allocation.
      CountEntryLocked(hdr, false);
      if (!stored.bytes.empty()) {
        std::memcpy(PhysPtr(offset) + kHeaderSize, stored.bytes.data(),
                    stored.bytes.size());
      }
      hdr->size = static_cast<std::uint32_t>(stored.bytes.size());
      SetCapFormat(hdr, CapOf(hdr), stored.format);
      CountEntryLocked(hdr, true);
      return Status::OK();
    }
  }
  // Append the new entry first; only then retire the old one, so a failed
  // allocation leaves the cell untouched and still indexed.
  std::uint64_t replaced = TrunkIndex::kNoOffset;
  Status s = InstallStoredLocked(id, stored, reserve, &replaced);
  if (!s.ok()) return s;
  if (replaced != TrunkIndex::kNoOffset) {
    RetireLocked(replaced);
  } else if (cold_tier_ != nullptr) {
    // A blind overwrite of a spilled cell never needs the old bytes.
    cold_tier_->Drop(id);
  }
  MaybeEnforceBudgetLocked();
  return Status::OK();
}

Status MemoryTrunk::ResolveLocked(CellId id, std::uint64_t* offset) {
  *offset = index_.Find(id);
  if (*offset != TrunkIndex::kNoOffset) return Status::OK();
  if (cold_tier_ == nullptr || !cold_tier_->Contains(id)) {
    return Status::NotFound("no such cell");
  }
  // Fault in. Make room first: the faulting cell is not resident, so it
  // cannot be chosen as a victim. This keeps read-only fault storms (e.g.
  // PageRank sweeping a 4x graph) from overrunning the ring.
  MaybeEnforceBudgetLocked();
  std::string stored;
  ColdTier::CellMeta meta;
  Status s = cold_tier_->ReadCell(id, &stored, &meta);
  if (!s.ok()) return s;
  const auto format = static_cast<CellFormat>(meta.format);
  s = InstallStoredLocked(id, {format, Slice(stored)});
  if (!s.ok()) return s;  // Mapping still in the cold tier: nothing lost.
  *offset = index_.Find(id);
  ++stats_.cells_faulted;
  TouchRefBit(id);  // A fresh fault-in deserves its second chance.
  cold_tier_->Drop(id);
  return Status::OK();
}

void MemoryTrunk::MaybeEnforceBudgetLocked() {
  if (cold_tier_ == nullptr || in_defrag_) return;
  if (head_ - tail_ <= options_.memory_budget) return;
  DefragmentLocked();
}

Status MemoryTrunk::AddCell(CellId id, Slice payload) {
  if (id >= kDeadCell) return Status::InvalidArgument("reserved cell id");
  auto lock = WriteLock();
  if (index_.Find(id) != TrunkIndex::kNoOffset) {
    return Status::AlreadyExists("cell exists");
  }
  if (cold_tier_ != nullptr && cold_tier_->Contains(id)) {
    return Status::AlreadyExists("cell exists (spilled)");
  }
  std::string enc;
  return StoreLocked(id, TrunkIndex::kNoOffset, Encode(payload, &enc));
}

Status MemoryTrunk::PutCell(CellId id, Slice payload) {
  if (id >= kDeadCell) return Status::InvalidArgument("reserved cell id");
  auto lock = WriteLock();
  std::string enc;
  const StoredForm stored = Encode(payload, &enc);
  const std::uint64_t offset = index_.Find(id);
  if (offset == TrunkIndex::kNoOffset) {
    return StoreLocked(id, offset, stored);
  }
  CellLockGuard cell_lock(this, id);
  return StoreLocked(id, offset, stored);
}

Status MemoryTrunk::ReadPayloadLocked(std::uint64_t logical,
                                      std::string* out) const {
  const EntryHeader* hdr = HeaderAt(logical);
  if (FormatOf(hdr) == CellFormat::kRaw) {
    out->assign(PhysPtr(logical) + kHeaderSize, hdr->size);
    return Status::OK();
  }
  return CellCodec::DecodeAdjacency(StoredAt(logical), out);
}

template <typename ReadFn>
Status MemoryTrunk::ReadResident(CellId id, ReadFn&& read) const {
  {
    auto lock = ReadLock();
    const std::uint64_t offset = index_.Find(id);
    if (offset != TrunkIndex::kNoOffset) {
      TouchRefBit(id);
      return read(offset);
    }
    if (cold_tier_ == nullptr || !cold_tier_->Contains(id)) {
      return Status::NotFound("no such cell");
    }
  }
  // Spilled: fault it in under the exclusive side, then serve. Resolving
  // again covers a racing fault-in (or removal) between the locks.
  auto* self = const_cast<MemoryTrunk*>(this);
  auto lock = self->WriteLock();
  std::uint64_t offset = 0;
  Status s = self->ResolveLocked(id, &offset);
  if (!s.ok()) return s;
  TouchRefBit(id);
  return read(offset);
}

Status MemoryTrunk::GetCell(CellId id, std::string* out) const {
  return ReadResident(id, [&](std::uint64_t offset) {
    return ReadPayloadLocked(offset, out);
  });
}

bool MemoryTrunk::Contains(CellId id) const {
  auto lock = ReadLock();
  if (index_.Find(id) != TrunkIndex::kNoOffset) return true;
  return cold_tier_ != nullptr && cold_tier_->Contains(id);
}

Status MemoryTrunk::GetCellSize(CellId id, std::uint64_t* size) const {
  auto lock = ReadLock();
  const std::uint64_t offset = index_.Find(id);
  if (offset != TrunkIndex::kNoOffset) {
    const EntryHeader* hdr = HeaderAt(offset);
    if (FormatOf(hdr) == CellFormat::kRaw) {
      *size = hdr->size;
      return Status::OK();
    }
    return CellCodec::DecodedSize(StoredAt(offset), size);
  }
  ColdTier::CellMeta meta;
  if (cold_tier_ != nullptr && cold_tier_->Lookup(id, &meta)) {
    *size = meta.raw_size;  // Answered from the page table: no cold I/O.
    return Status::OK();
  }
  return Status::NotFound("no such cell");
}

Status MemoryTrunk::RemoveCell(CellId id) {
  auto lock = WriteLock();
  const std::uint64_t offset = index_.Find(id);
  if (offset == TrunkIndex::kNoOffset) {
    if (cold_tier_ != nullptr && cold_tier_->Contains(id)) {
      cold_tier_->Drop(id);  // Page space reclaimed when the page drains.
      return Status::OK();
    }
    return Status::NotFound("no such cell");
  }
  CellLockGuard cell_lock(this, id);
  index_.Erase(id);
  RetireLocked(offset);
  return Status::OK();
}

Status MemoryTrunk::AppendToCell(CellId id, Slice suffix) {
  auto lock = WriteLock();
  std::uint64_t offset = 0;
  Status s = ResolveLocked(id, &offset);
  if (!s.ok()) return s;
  EntryHeader* hdr = HeaderAt(offset);
  CellLockGuard cell_lock(this, id);
  if (FormatOf(hdr) == CellFormat::kRaw &&
      hdr->size + suffix.size() <= CapOf(hdr)) {
    // The short-lived reservation absorbs the growth; no relocation.
    if (!suffix.empty()) {
      std::memcpy(PhysPtr(offset) + kHeaderSize + hdr->size, suffix.data(),
                  suffix.size());
    }
    CountEntryLocked(hdr, false);
    hdr->size += static_cast<std::uint32_t>(suffix.size());
    CountEntryLocked(hdr, true);
    ++stats_.expansions_in_place;
    return Status::OK();
  }
  // Relocate with a fresh short-lived reservation (§6.1: "if the current
  // key-value pair needs to expand by 16 bytes, we allocate 32 instead").
  // A compressed cell is materialized to raw here — append-heavy cells stay
  // raw and cheap to grow; the next defrag move re-compresses them. No
  // in-place offset is passed: even a compressed entry with room relocates.
  std::string image;
  s = ReadPayloadLocked(offset, &image);
  if (!s.ok()) return s;
  image.append(suffix.data(), suffix.size());
  const std::uint64_t reserve =
      image.size() * static_cast<std::uint64_t>(options_.reservation_pct) /
      100;
  s = StoreLocked(id, TrunkIndex::kNoOffset, {CellFormat::kRaw, Slice(image)},
                  reserve);
  if (!s.ok()) return s;
  ++stats_.expansions_relocated;
  return Status::OK();
}

Status MemoryTrunk::WriteAt(CellId id, std::uint64_t offset, Slice bytes) {
  auto lock = WriteLock();
  std::uint64_t entry = 0;
  Status s = ResolveLocked(id, &entry);
  if (!s.ok()) return s;
  EntryHeader* hdr = HeaderAt(entry);
  if (FormatOf(hdr) == CellFormat::kRaw) {
    if (offset + bytes.size() > hdr->size) {
      return Status::InvalidArgument("write past end of cell");
    }
    CellLockGuard cell_lock(this, id);
    if (!bytes.empty()) {
      std::memcpy(PhysPtr(entry) + kHeaderSize + offset, bytes.data(),
                  bytes.size());
    }
    return Status::OK();
  }
  // Compressed: patch the decoded image and store it again (re-encoding
  // when the patched payload still compresses).
  std::string image;
  s = ReadPayloadLocked(entry, &image);
  if (!s.ok()) return s;
  if (offset + bytes.size() > image.size()) {
    return Status::InvalidArgument("write past end of cell");
  }
  if (!bytes.empty()) {
    std::memcpy(&image[offset], bytes.data(), bytes.size());
  }
  std::string enc;
  const StoredForm stored = Encode(Slice(image), &enc);
  CellLockGuard cell_lock(this, id);
  return StoreLocked(id, entry, stored);
}

Status MemoryTrunk::PinLocked(CellId id, std::uint64_t offset,
                              ConstAccessor* accessor) const {
  const EntryHeader* hdr = HeaderAt(offset);
  accessor->Release();  // Before acquiring: the old stripe may equal ours.
  if (FormatOf(hdr) == CellFormat::kRaw) {
    // Pins the cell: defrag/eviction TryLock will skip it. Debug builds
    // abort on re-entrant stripe acquisition (see AcquireCellLock).
    accessor->lock_ = AcquireCellLock(id);
    accessor->data_ = Slice(PhysPtr(offset) + kHeaderSize, hdr->size);
    return Status::OK();
  }
  // Materialize-on-pin: the decoded copy is self-contained, so no stripe
  // lock is held and the lock-free read path stays untouched.
  auto owned = std::make_unique<std::string>();
  Status s = CellCodec::DecodeAdjacency(StoredAt(offset), owned.get());
  if (!s.ok()) return s;
  accessor->owned_ = std::move(owned);
  accessor->data_ = Slice(*accessor->owned_);
  return Status::OK();
}

Status MemoryTrunk::Access(CellId id, ConstAccessor* accessor) const {
  return ReadResident(id, [&](std::uint64_t offset) {
    return PinLocked(id, offset, accessor);
  });
}

std::uint64_t MemoryTrunk::Defragment() {
  auto lock = WriteLock();
  return DefragmentLocked();
}

void MemoryTrunk::SpillColdLocked(std::uint64_t target) {
  // Clock sweep over the ring from the tail — oldest-written data first,
  // which approximates LRU once ref bits thin it. Round 0 grants every
  // referenced cell a second chance (clearing its bit); round 1 takes any
  // cell that is not pinned by an accessor.
  auto live_span_bytes = [&] { return head_ - tail_ - stats_.dead_bytes; };
  for (int round = 0; round < 2 && live_span_bytes() > target; ++round) {
    std::vector<ColdTier::SpillEntry> victims;
    std::vector<SpinLock*> held;
    std::vector<std::uint64_t> offsets;
    std::uint64_t projected = live_span_bytes();
    for (std::uint64_t pos = tail_; pos < head_ && projected > target;) {
      const std::uint64_t phys = pos % capacity_;
      const std::uint64_t rem = capacity_ - phys;
      if (rem < kHeaderSize) {
        pos += rem;
        continue;
      }
      EntryHeader* hdr = HeaderAt(pos);
      const std::uint64_t cap =
          hdr->id == kPadCell ? hdr->capacity : CapOf(hdr);
      const std::uint64_t span = EntrySpan(cap);
      if (hdr->id == kPadCell || hdr->id == kDeadCell) {
        pos += span;
        continue;
      }
      const CellId id = hdr->id;
      if (round == 0 && TestClearRefBit(id)) {
        pos += span;  // Second chance.
        continue;
      }
      SpinLock& cell_lock = LockFor(id);
      if (!cell_lock.TryLock()) {
        pos += span;  // Pinned by an accessor (or a stripe-mate victim).
        continue;
      }
      held.push_back(&cell_lock);
      offsets.push_back(pos);
      ColdTier::SpillEntry entry;
      entry.id = id;
      entry.format = static_cast<std::uint8_t>(FormatOf(hdr));
      entry.raw_size = static_cast<std::uint32_t>(
          CellCodec::LogicalSize(FormatOf(hdr), StoredAt(pos)));
      entry.stored = StoredAt(pos);
      victims.push_back(entry);
      projected -= span;
      pos += span;
    }
    if (victims.empty()) continue;
    // Crash-safety order: pages first. Only once every victim is durable in
    // the cold tier do the resident copies die; a failed write rolls back
    // any partially-installed mappings and leaves all victims resident.
    Status s = cold_tier_->Spill(victims);
    if (!s.ok()) {
      for (const auto& victim : victims) cold_tier_->Drop(victim.id);
      for (SpinLock* lock : held) lock->Unlock();
      return;
    }
    for (std::size_t i = 0; i < victims.size(); ++i) {
      index_.Erase(victims[i].id);
      RetireLocked(offsets[i]);
      ++stats_.cells_evicted;
      held[i]->Unlock();
    }
  }
}

std::uint64_t MemoryTrunk::DefragmentLocked() {
  ++stats_.defrag_passes;
  in_defrag_ = true;
  // Over budget? The compaction pass doubles as the eviction pass: spill
  // down to a low-water mark (7/8 of the budget) so enforcement amortizes
  // instead of re-triggering on every subsequent allocation.
  if (cold_tier_ != nullptr && head_ - tail_ > options_.memory_budget) {
    SpillColdLocked(options_.memory_budget - options_.memory_budget / 8);
  }
  std::uint64_t reclaimed = 0;
  std::string image;
  const std::uint64_t pass_end = head_;
  while (tail_ < pass_end && tail_ < head_) {
    if (stats_.dead_bytes == 0 && stats_.reserved_slack == 0) break;
    const std::uint64_t phys = tail_ % capacity_;
    const std::uint64_t rem = capacity_ - phys;
    if (rem < kHeaderSize) {
      tail_ += rem;
      stats_.dead_bytes -= rem;
      reclaimed += rem;
      continue;
    }
    EntryHeader* hdr = HeaderAt(tail_);
    const std::uint64_t cap = hdr->id == kPadCell ? hdr->capacity : CapOf(hdr);
    const std::uint64_t span = EntrySpan(cap);
    if (hdr->id == kPadCell || hdr->id == kDeadCell) {
      tail_ += span;
      stats_.dead_bytes -= span;
      reclaimed += span;
      continue;
    }
    // Live entry: move it to the head (trimming any unused reservation,
    // which is what makes reservations "short-lived").
    const CellId id = hdr->id;
    const std::uint32_t size = hdr->size;
    const CellFormat format = FormatOf(hdr);
    // Precheck that re-appending (including any ring padding the move may
    // require) fits once this entry's own span is freed; otherwise stop the
    // pass rather than risk overwriting the bytes being moved.
    {
      const std::uint64_t need = EntrySpan(size);
      const std::uint64_t head_phys = head_ % capacity_;
      const std::uint64_t head_rem = capacity_ - head_phys;
      const std::uint64_t pad = head_rem < need ? head_rem : 0;
      if (head_ - (tail_ + span) + pad + need > capacity_) break;
    }
    SpinLock& cell_lock = LockFor(id);
    if (!cell_lock.TryLock()) break;  // Pinned by an accessor; stop here.
    image.assign(PhysPtr(tail_) + kHeaderSize, size);
    // The move is the natural point to re-compress cells that append-heavy
    // phases materialized to raw (adaptive: only when strictly smaller).
    std::string enc;
    const StoredForm stored = format == CellFormat::kRaw
                                  ? Encode(Slice(image), &enc)
                                  : StoredForm{format, Slice(image)};
    // Retire at the tail and reclaim the span at once, then re-install at
    // the head.
    RetireLocked(tail_);
    tail_ += span;
    stats_.dead_bytes -= span;
    Status s = InstallStoredLocked(id, stored);
    TRINITY_CHECK(s.ok(), "defrag re-append failed after space precheck");
    reclaimed += cap - stored.bytes.size();
    ++stats_.cells_moved;
    cell_lock.Unlock();
  }
  in_defrag_ = false;
  DecommitDeadPagesLocked();
  return reclaimed;
}

MemoryTrunk::Stats MemoryTrunk::stats() const {
  auto lock = ReadLock();
  Stats s = stats_;
  s.used_bytes = head_ - tail_;
  s.resident_bytes = s.used_bytes - stats_.dead_bytes;
  s.committed_bytes = committed_page_count_ * page_size_;
  s.capacity = capacity_;
  if (cold_tier_ != nullptr) {
    s.spilled_cells = cold_tier_->spilled_cells();
    s.spilled_bytes = cold_tier_->spilled_bytes();
    const ColdTier::Stats cold = cold_tier_->stats();
    s.cold_bytes_written = cold.bytes_spilled;
    s.cold_bytes_read = cold.bytes_faulted;
    s.live_cells += s.spilled_cells;
  }
  // Lock-contention counters live outside stats_ as relaxed atomics so the
  // hot paths can bump them without owning the trunk lock exclusively.
  s.read_lock_contended = read_lock_contended_.load(std::memory_order_relaxed);
  s.write_lock_contended =
      write_lock_contended_.load(std::memory_order_relaxed);
  s.cell_lock_contended = cell_lock_contended_.load(std::memory_order_relaxed);
  return s;
}

MemoryTrunk::Stats& MemoryTrunk::Stats::operator+=(const Stats& o) {
  live_cells += o.live_cells;
  live_bytes += o.live_bytes;
  reserved_slack += o.reserved_slack;
  dead_bytes += o.dead_bytes;
  used_bytes += o.used_bytes;
  resident_bytes += o.resident_bytes;
  committed_bytes += o.committed_bytes;
  capacity += o.capacity;
  defrag_passes += o.defrag_passes;
  cells_moved += o.cells_moved;
  expansions_in_place += o.expansions_in_place;
  expansions_relocated += o.expansions_relocated;
  compressed_cells += o.compressed_cells;
  compressed_bytes += o.compressed_bytes;
  spilled_cells += o.spilled_cells;
  spilled_bytes += o.spilled_bytes;
  cells_evicted += o.cells_evicted;
  cells_faulted += o.cells_faulted;
  cold_bytes_written += o.cold_bytes_written;
  cold_bytes_read += o.cold_bytes_read;
  read_lock_contended += o.read_lock_contended;
  write_lock_contended += o.write_lock_contended;
  cell_lock_contended += o.cell_lock_contended;
  return *this;
}

std::uint64_t MemoryTrunk::cell_count() const {
  auto lock = ReadLock();
  std::uint64_t count = index_.size();
  if (cold_tier_ != nullptr) count += cold_tier_->spilled_cells();
  return count;
}

std::vector<CellId> MemoryTrunk::CellIds() const {
  auto lock = ReadLock();
  std::vector<CellId> ids;
  ids.reserve(index_.size());
  index_.ForEach([&](CellId id, std::uint64_t) { ids.push_back(id); });
  if (cold_tier_ != nullptr && cold_tier_->spilled_cells() > 0) {
    const std::vector<CellId> cold = cold_tier_->CellIds();
    ids.insert(ids.end(), cold.begin(), cold.end());
  }
  // Sorted so enumeration order is independent of which cells happen to be
  // spilled (and of index insertion history). Compute engines iterate these
  // ids and accumulate doubles; a residency-dependent order would make
  // results bitwise-irreproducible across memory configurations.
  std::sort(ids.begin(), ids.end());
  return ids;
}

Status MemoryTrunk::Serialize(std::string* out) const {
  auto lock = ReadLock();
  BinaryWriter writer;
  writer.PutU64(kTrunkImageMagic);
  writer.PutU32(2);
  const std::uint64_t spilled =
      cold_tier_ != nullptr ? cold_tier_->spilled_cells() : 0;
  writer.PutU64(index_.size() + spilled);
  index_.ForEach([&](CellId id, std::uint64_t offset) {
    const EntryHeader* hdr = HeaderAt(offset);
    writer.PutU64(id);
    writer.PutU8(static_cast<std::uint8_t>(FormatOf(hdr)));
    writer.PutBytes(StoredAt(offset));
  });
  if (spilled > 0) {
    // Read the cold pages back so the image is self-contained: snapshots,
    // replica ships and migrations need no cold-tier state to restore.
    Status s = cold_tier_->ForEachCell(
        [&](CellId id, const ColdTier::CellMeta& meta, Slice stored) {
          writer.PutU64(id);
          writer.PutU8(meta.format);
          writer.PutBytes(stored);
        });
    if (!s.ok()) return s;
  }
  *out = writer.Release();
  return Status::OK();
}

Status MemoryTrunk::Deserialize(Slice data, const Options& options,
                                std::unique_ptr<MemoryTrunk>* out) {
  std::unique_ptr<MemoryTrunk> trunk;
  Status s = Create(options, &trunk);
  if (!s.ok()) return s;
  BinaryReader reader(data);
  std::uint64_t magic = 0;
  std::uint32_t version = 0;
  std::uint64_t count = 0;
  if (!reader.GetU64(&magic) || magic != kTrunkImageMagic) {
    return Status::Corruption("trunk image header");
  }
  if (!reader.GetU32(&version) || version != 2 || !reader.GetU64(&count)) {
    return Status::Corruption("trunk image version");
  }
  for (std::uint64_t i = 0; i < count; ++i) {
    CellId id = 0;
    std::uint8_t format = 0;
    Slice stored;
    if (!reader.GetU64(&id) || !reader.GetU8(&format) ||
        !reader.GetBytes(&stored) ||
        format > static_cast<std::uint8_t>(CellFormat::kAdjDelta)) {
      return Status::Corruption("trunk image entry");
    }
    auto lock = trunk->WriteLock();
    if (trunk->index_.Find(id) != TrunkIndex::kNoOffset) {
      return Status::Corruption("trunk image duplicate cell");
    }
    s = trunk->StoreLocked(id, TrunkIndex::kNoOffset,
                           {static_cast<CellFormat>(format), stored});
    if (!s.ok()) return s;
  }
  *out = std::move(trunk);
  return Status::OK();
}

}  // namespace trinity::storage
