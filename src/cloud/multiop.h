#ifndef TRINITY_CLOUD_MULTIOP_H_
#define TRINITY_CLOUD_MULTIOP_H_

#include <functional>
#include <string>
#include <vector>

#include "cloud/memory_cloud.h"
#include "common/call_context.h"

namespace trinity::cloud {

/// Light-weight atomic multi-cell primitives (paper §4.4): "For
/// applications that need transaction support, we can implement
/// light-weight atomic operation primitives that span multiple cells, such
/// as MultiOp primitives [13] and Mini-transaction primitives [7], on top
/// of the atomic cell operation primitives."
///
/// A MultiOp is a Sinfonia-style mini-transaction: a set of *compare*
/// guards and a set of *write/append/remove* actions. Execution takes the
/// cells' stripes in the cloud's CellStripes table in ascending order
/// (two-phase, deadlock-free), evaluates every guard, and applies the
/// actions only if all guards hold. The actions go through the cloud's
/// router directly, below the single-cell entry points that take stripes
/// themselves. This is not full ACID — there is no redo log beyond the
/// cloud's buffered logging, and isolation is only against other MultiOps
/// and single-cell mutations of the same cells on the same cloud — exactly
/// the "light-weight" level the paper positions above raw cells and below
/// transactions.
class MultiOp {
 public:
  explicit MultiOp(MemoryCloud* cloud) : cloud_(cloud) {}

  /// Guard: the cell must exist and its payload equal `expected`.
  MultiOp& CompareEquals(CellId id, Slice expected);
  /// Guard: the cell must exist.
  MultiOp& CompareExists(CellId id);
  /// Guard: the cell must not exist.
  MultiOp& CompareAbsent(CellId id);

  /// Action: put (insert or replace) the cell.
  MultiOp& Put(CellId id, Slice payload);
  /// Action: append to an existing cell.
  MultiOp& Append(CellId id, Slice suffix);
  /// Action: remove the cell.
  MultiOp& Remove(CellId id);

  /// Borrows a per-request deadline/retry-budget context for every cloud
  /// call Execute makes (guard reads and action writes). The context must
  /// outlive Execute.
  MultiOp& WithContext(CallContext* ctx) {
    ctx_ = ctx;
    return *this;
  }

  /// Executes atomically from `src`'s perspective. Returns
  /// Aborted[guard-failed] when a guard fails (no action applied); other
  /// statuses indicate infrastructure errors. The builder can be reused
  /// after Execute.
  Status Execute(MachineId src);
  Status Execute() { return Execute(cloud_->client_id()); }

  /// Test hook: invoked after all guards passed, before the first action is
  /// applied — i.e. inside the critical section. Regression tests use it to
  /// try to interleave a racing single-cell write between guard evaluation
  /// and action apply.
  void SetPhaseHookForTest(std::function<void()> hook) {
    phase_hook_ = std::move(hook);
  }

  /// Convenience: classic compare-and-swap of one cell's payload.
  static Status CompareAndSwap(MemoryCloud* cloud, CellId id, Slice expected,
                               Slice replacement);

 private:
  enum class GuardKind { kEquals, kExists, kAbsent };
  using CellOp = MemoryCloud::CellOp;

  struct Guard {
    GuardKind kind;
    CellId id;
    std::string expected;
  };
  struct Action {
    CellOp op;  ///< kPut, kAppend or kRemove.
    CellId id;
    std::string payload;
  };

  MemoryCloud* cloud_;
  CallContext* ctx_ = nullptr;
  std::function<void()> phase_hook_;
  std::vector<Guard> guards_;
  std::vector<Action> actions_;
};

}  // namespace trinity::cloud

#endif  // TRINITY_CLOUD_MULTIOP_H_
