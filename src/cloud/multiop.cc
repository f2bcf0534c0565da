#include "cloud/multiop.h"

#include <algorithm>

namespace trinity::cloud {

MultiOp& MultiOp::CompareEquals(CellId id, Slice expected) {
  guards_.push_back(Guard{GuardKind::kEquals, id, expected.ToString()});
  return *this;
}

MultiOp& MultiOp::CompareExists(CellId id) {
  guards_.push_back(Guard{GuardKind::kExists, id, ""});
  return *this;
}

MultiOp& MultiOp::CompareAbsent(CellId id) {
  guards_.push_back(Guard{GuardKind::kAbsent, id, ""});
  return *this;
}

MultiOp& MultiOp::Put(CellId id, Slice payload) {
  actions_.push_back(Action{CellOp::kPut, id, payload.ToString()});
  return *this;
}

MultiOp& MultiOp::Append(CellId id, Slice suffix) {
  actions_.push_back(Action{CellOp::kAppend, id, suffix.ToString()});
  return *this;
}

MultiOp& MultiOp::Remove(CellId id) {
  actions_.push_back(Action{CellOp::kRemove, id, ""});
  return *this;
}

Status MultiOp::Execute(MachineId src) {
  // Collect the distinct stripes of every touched cell and lock them in
  // ascending order in the cloud's CellStripes table, the one single-cell
  // mutations take, so a bare Put/Remove cannot land between guard
  // evaluation and action apply.
  std::vector<int> stripes;
  stripes.reserve(guards_.size() + actions_.size());
  for (const Guard& guard : guards_) {
    stripes.push_back(CellStripes::StripeOf(guard.id));
  }
  for (const Action& action : actions_) {
    stripes.push_back(CellStripes::StripeOf(action.id));
  }
  std::sort(stripes.begin(), stripes.end());
  stripes.erase(std::unique(stripes.begin(), stripes.end()), stripes.end());
  CellStripes::Guard lock(cloud_->stripes_, stripes);

  // Phase 1: evaluate every guard.
  for (const Guard& guard : guards_) {
    std::string current;
    const Status s = cloud_->GetCellFrom(src, guard.id, &current, ctx_);
    switch (guard.kind) {
      case GuardKind::kEquals:
        if (s.IsNotFound()) {
          return Status::Aborted("guard cell missing",
                                 Status::Subcode::kGuardFailed);
        }
        if (!s.ok()) return s;
        if (current != guard.expected) {
          return Status::Aborted("guard value mismatch",
                                 Status::Subcode::kGuardFailed);
        }
        break;
      case GuardKind::kExists:
        if (s.IsNotFound()) {
          return Status::Aborted("guard cell missing",
                                 Status::Subcode::kGuardFailed);
        }
        if (!s.ok()) return s;
        break;
      case GuardKind::kAbsent:
        if (s.ok()) {
          return Status::Aborted("guard cell present",
                                 Status::Subcode::kGuardFailed);
        }
        if (!s.IsNotFound()) return s;
        break;
    }
  }
  if (phase_hook_) phase_hook_();
  // Phase 2: apply every action. RouteOp takes no stripe, so the ones held
  // above are never acquired twice. Infrastructure failures here can leave
  // a partially applied MultiOp (no undo log) — the documented light-weight
  // semantics.
  for (const Action& action : actions_) {
    const Status s = cloud_->RouteOp(src, action.op, action.id,
                                     Slice(action.payload), nullptr, ctx_);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status MultiOp::CompareAndSwap(MemoryCloud* cloud, CellId id, Slice expected,
                               Slice replacement) {
  MultiOp op(cloud);
  op.CompareEquals(id, expected).Put(id, replacement);
  return op.Execute();
}

}  // namespace trinity::cloud
