#ifndef TRINITY_COMPUTE_PACKED_MESSAGES_H_
#define TRINITY_COMPUTE_PACKED_MESSAGES_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/types.h"

namespace trinity::compute {

/// Flat wire format shared by the compute engines' per-(src,dst) outboxes
/// (paper §4.2 message packing, done explicitly at the engine layer):
///
///   record := [target u64][len u32][len bytes]
///
/// A vertex send appends one record to the outbox owned by the sending
/// machine's worker thread; the whole buffer travels through the fabric as a
/// single packed payload at the superstep barrier, so the fabric mutex is
/// taken O(machines^2) times per superstep instead of once per message.
inline void AppendPackedRecord(std::string* buf, CellId target, Slice msg) {
  const std::uint32_t len = static_cast<std::uint32_t>(msg.size());
  char header[12];
  std::memcpy(header, &target, 8);
  std::memcpy(header + 8, &len, 4);
  buf->append(header, 12);
  buf->append(msg.data(), msg.size());
}

/// Iterates the records of one packed payload in arrival order. Returns
/// false on a malformed buffer (truncated record).
template <typename Fn>
inline bool ForEachPackedRecord(Slice payload, const Fn& fn) {
  std::size_t pos = 0;
  while (pos < payload.size()) {
    if (pos + 12 > payload.size()) return false;
    CellId target = 0;
    std::uint32_t len = 0;
    std::memcpy(&target, payload.data() + pos, 8);
    std::memcpy(&len, payload.data() + pos + 8, 4);
    pos += 12;
    if (pos + len > payload.size()) return false;
    fn(target, Slice(payload.data() + pos, len));
    pos += len;
  }
  return true;
}

/// One machine's outgoing buffer toward a single destination machine.
/// Append-only during a superstep (touched by exactly one worker thread) and
/// flushed at the barrier; a receiver may keep slices into payload() until
/// the owner clears it. The buffer keeps its capacity across Clear(), so a
/// steady-state Add is two memcpys into space already there.
class Outbox {
 public:
  std::uint64_t count = 0;

  void Add(CellId target, Slice msg) {
    const std::uint32_t len = static_cast<std::uint32_t>(msg.size());
    const std::size_t end = used_ + 12 + len;
    // std::string grows its capacity geometrically; resize() zero-fills
    // only the bytes up to `end`, so untouched capacity stays unmapped.
    if (end > buf_.size()) buf_.resize(end);
    char* record = buf_.data() + used_;
    std::memcpy(record, &target, 8);
    std::memcpy(record + 8, &len, 4);
    if (len != 0) std::memcpy(record + 12, msg.data(), len);
    used_ = end;
    ++count;
  }
  /// The packed records appended since the last Clear().
  Slice payload() const { return Slice(buf_.data(), used_); }
  bool empty() const { return count == 0; }
  void Clear() {
    used_ = 0;
    count = 0;
  }

 private:
  std::string buf_;
  std::size_t used_ = 0;
};

}  // namespace trinity::compute

#endif  // TRINITY_COMPUTE_PACKED_MESSAGES_H_
