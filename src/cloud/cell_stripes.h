#ifndef TRINITY_CLOUD_CELL_STRIPES_H_
#define TRINITY_CLOUD_CELL_STRIPES_H_

#include <span>

#include "common/hash.h"
#include "common/spinlock.h"
#include "common/types.h"

namespace trinity::cloud {

/// One MemoryCloud's striped cell locks (paper §4.4: single-cell operations
/// are atomic under per-cell spin locks). Guarded multi-cell operations
/// (MultiOp, the transaction layer's intent CAS) and every single-cell
/// mutation entry point take the stripes of the cells they touch, so a
/// guarded apply and a bare write of the same cell serialize, one fully
/// before the other. Reads take no stripe: they cannot invalidate a guard.
///
/// Each cloud owns its table, so two clouds in one process never block each
/// other. The locks are not re-entrant and need not be: a MultiOp applies
/// its actions below the entry points that take stripes, so no thread ever
/// acquires a stripe it already holds.
class CellStripes {
 public:
  static constexpr int kStripes = 1024;

  static int StripeOf(CellId id) {
    return static_cast<int>(InTrunkHash(id ^ 0x517cc1b727220a95ULL) %
                            kStripes);
  }

  /// Holds `stripes`, which must be sorted and unique (one global lock
  /// order, so guards never deadlock), until destruction.
  class Guard {
   public:
    Guard(CellStripes& table, std::span<const int> stripes)
        : table_(table), stripes_(stripes) {
      for (int s : stripes_) table_.locks_[s].Lock();
    }
    /// Holds the stripe of one cell.
    Guard(CellStripes& table, CellId id)
        : table_(table), single_(StripeOf(id)), stripes_(&single_, 1) {
      table_.locks_[single_].Lock();
    }

    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

    ~Guard() {
      for (auto it = stripes_.rbegin(); it != stripes_.rend(); ++it) {
        table_.locks_[*it].Unlock();
      }
    }

   private:
    CellStripes& table_;
    int single_ = 0;  ///< Backs stripes_ for a one-cell guard.
    std::span<const int> stripes_;
  };

 private:
  SpinLock locks_[kStripes];
};

}  // namespace trinity::cloud

#endif  // TRINITY_CLOUD_CELL_STRIPES_H_
