#include "graph/graph.h"

#include <cstring>

#include "common/serializer.h"

namespace trinity::graph {

Graph::Graph(cloud::MemoryCloud* cloud, Options options)
    : cloud_(cloud), options_(options) {}

Graph::Graph(cloud::MemoryCloud* cloud) : Graph(cloud, Options()) {}

std::string Graph::EncodeNode(const NodeImage& node) {
  BinaryWriter writer;
  writer.PutU32(static_cast<std::uint32_t>(node.in.size()));
  writer.PutU32(static_cast<std::uint32_t>(node.data.size()));
  writer.PutRaw(node.data.data(), node.data.size());
  for (CellId v : node.in) writer.PutU64(v);
  for (CellId v : node.out) writer.PutU64(v);
  return writer.Release();
}

bool Graph::ParseHeader(Slice blob, std::uint32_t* in_count,
                        std::uint32_t* data_len, std::size_t* in_begin,
                        std::size_t* out_begin, std::size_t* out_count) {
  if (blob.size() < 8) return false;
  std::memcpy(in_count, blob.data(), 4);
  std::memcpy(data_len, blob.data() + 4, 4);
  *in_begin = 8 + *data_len;
  *out_begin = *in_begin + static_cast<std::size_t>(*in_count) * 8;
  if (*out_begin > blob.size()) return false;
  const std::size_t tail = blob.size() - *out_begin;
  if (tail % 8 != 0) return false;
  *out_count = tail / 8;
  return true;
}

Status Graph::DecodeNode(CellId id, Slice blob, NodeImage* out) {
  std::uint32_t in_count = 0, data_len = 0;
  std::size_t in_begin = 0, out_begin = 0, out_count = 0;
  if (!ParseHeader(blob, &in_count, &data_len, &in_begin, &out_begin,
                   &out_count)) {
    return Status::Corruption("malformed node cell");
  }
  out->id = id;
  out->data.assign(blob.data() + 8, data_len);
  out->in.resize(in_count);
  if (in_count > 0) {
    std::memcpy(out->in.data(), blob.data() + in_begin, in_count * 8);
  }
  out->out.resize(out_count);
  if (out_count > 0) {
    std::memcpy(out->out.data(), blob.data() + out_begin, out_count * 8);
  }
  return Status::OK();
}

Status Graph::AddNode(CellId id, Slice data) {
  return AddNodeFrom(cloud_->client_id(), id, data);
}

Status Graph::AddNodeFrom(MachineId src, CellId id, Slice data) {
  NodeImage node;
  node.id = id;
  node.data = data.ToString();
  return cloud_->AddCellFrom(src, id, Slice(EncodeNode(node)));
}

Status Graph::BulkAddNode(MachineId src, const NodeImage& node) {
  return cloud_->AddCellFrom(src, node.id, Slice(EncodeNode(node)));
}

Status Graph::AddEdge(CellId from, CellId to) {
  return AddEdgeFrom(cloud_->client_id(), from, to);
}

Status Graph::AddEdgeFrom(MachineId src, CellId from, CellId to) {
  // Appending to the out-list is the fast path: the out ids live at the end
  // of the blob, so this is a trunk append that exploits reservations.
  char raw[8];
  std::memcpy(raw, &to, 8);
  Status s = cloud_->AppendToCellFrom(src, from, Slice(raw, 8));
  if (!s.ok()) return s;
  if (!options_.directed) {
    std::memcpy(raw, &from, 8);
    return cloud_->AppendToCellFrom(src, to, Slice(raw, 8));
  }
  if (options_.track_inlinks) {
    return InsertInlink(src, to, from);
  }
  return Status::OK();
}

Status Graph::AppendRawOutEntry(CellId node, CellId value) {
  char raw[8];
  std::memcpy(raw, &value, 8);
  return cloud_->AppendToCellFrom(cloud_->client_id(), node, Slice(raw, 8));
}

Status Graph::InsertRawInEntry(CellId node, CellId value) {
  return InsertInlink(cloud_->client_id(), node, value);
}

Status Graph::InsertInlink(MachineId src, CellId node, CellId from) {
  // In-links sit in the middle of the blob: read-modify-write.
  std::string blob;
  Status s = cloud_->GetCellFrom(src, node, &blob);
  if (!s.ok()) return s;
  std::uint32_t in_count = 0, data_len = 0;
  std::size_t in_begin = 0, out_begin = 0, out_count = 0;
  if (!ParseHeader(Slice(blob), &in_count, &data_len, &in_begin, &out_begin,
                   &out_count)) {
    return Status::Corruption("malformed node cell");
  }
  ++in_count;
  std::memcpy(blob.data(), &in_count, 4);
  char raw[8];
  std::memcpy(raw, &from, 8);
  blob.insert(out_begin, raw, 8);  // New in-id goes after existing in-ids.
  return cloud_->PutCellFrom(src, node, Slice(blob));
}

bool Graph::HasNode(CellId id) {
  bool exists = false;
  return cloud_->Contains(id, &exists).ok() && exists;
}

Status Graph::GetOutlinks(CellId id, std::vector<CellId>* out) {
  return GetOutlinksFrom(cloud_->client_id(), id, out);
}

Status Graph::GetOutlinksFrom(MachineId src, CellId id,
                              std::vector<CellId>* out) {
  std::string blob;
  Status s = cloud_->GetCellFrom(src, id, &blob);
  if (!s.ok()) return s;
  NodeImage node;
  s = DecodeNode(id, Slice(blob), &node);
  if (!s.ok()) return s;
  *out = std::move(node.out);
  return Status::OK();
}

Status Graph::GetInlinks(CellId id, std::vector<CellId>* out) {
  return GetInlinksFrom(cloud_->client_id(), id, out);
}

Status Graph::GetInlinksFrom(MachineId src, CellId id,
                             std::vector<CellId>* out) {
  if (options_.directed && !options_.track_inlinks) {
    return Status::NotSupported("in-links not tracked");
  }
  std::string blob;
  Status s = cloud_->GetCellFrom(src, id, &blob);
  if (!s.ok()) return s;
  NodeImage node;
  s = DecodeNode(id, Slice(blob), &node);
  if (!s.ok()) return s;
  // Undirected graphs store all adjacency in the out-list.
  *out = options_.directed ? std::move(node.in) : std::move(node.out);
  return Status::OK();
}

Status Graph::GetNodeData(CellId id, std::string* out) {
  return GetNodeDataFrom(cloud_->client_id(), id, out);
}

Status Graph::GetNodeDataFrom(MachineId src, CellId id, std::string* out) {
  std::string blob;
  Status s = cloud_->GetCellFrom(src, id, &blob);
  if (!s.ok()) return s;
  NodeImage node;
  s = DecodeNode(id, Slice(blob), &node);
  if (!s.ok()) return s;
  *out = std::move(node.data);
  return Status::OK();
}

Status Graph::SetNodeData(CellId id, Slice data) {
  std::string blob;
  Status s = cloud_->GetCell(id, &blob);
  if (!s.ok()) return s;
  NodeImage node;
  s = DecodeNode(id, Slice(blob), &node);
  if (!s.ok()) return s;
  node.data = data.ToString();
  return cloud_->PutCell(id, Slice(EncodeNode(node)));
}

Status Graph::OutDegreeFrom(MachineId src, CellId id, std::size_t* out) {
  std::string blob;
  Status s = cloud_->GetCellFrom(src, id, &blob);
  if (!s.ok()) return s;
  std::uint32_t in_count = 0, data_len = 0;
  std::size_t in_begin = 0, out_begin = 0, out_count = 0;
  if (!ParseHeader(Slice(blob), &in_count, &data_len, &in_begin, &out_begin,
                   &out_count)) {
    return Status::Corruption("malformed node cell");
  }
  *out = out_count;
  return Status::OK();
}

Status Graph::VisitLocalNode(MachineId machine, CellId id,
                             const LocalVisitor& fn) const {
  return VisitLocalNode(cloud_->trunks(machine).get(), id, fn);
}

Status Graph::VisitLocalNode(const storage::MemoryStorage::Trunks* trunks,
                             CellId id, const LocalVisitor& fn) const {
  if (trunks == nullptr) return Status::NotFound("not a slave");
  const storage::MemoryTrunk* trunk =
      trunks->primary_at(cloud_->TrunkOf(id)).get();
  if (trunk == nullptr) return Status::NotFound("node not local");
  storage::MemoryTrunk::ConstAccessor accessor;
  Status s = trunk->Access(id, &accessor);
  if (!s.ok()) return s;
  const Slice blob = accessor.data();
  std::uint32_t in_count = 0, data_len = 0;
  std::size_t in_begin = 0, out_begin = 0, out_count = 0;
  if (!ParseHeader(blob, &in_count, &data_len, &in_begin, &out_begin,
                   &out_count)) {
    return Status::Corruption("malformed node cell");
  }
  // CellId arrays are 8-byte values at arbitrary alignment; the blob offsets
  // are not guaranteed 8-aligned, so expose via pointer into a local copy
  // only when misaligned. In practice in_begin/out_begin are 8-aligned when
  // data_len % 8 == 0; generators pad names, but be defensive:
  if ((reinterpret_cast<std::uintptr_t>(blob.data() + in_begin) & 7) == 0) {
    fn(Slice(blob.data() + 8, data_len),
       reinterpret_cast<const CellId*>(blob.data() + in_begin), in_count,
       reinterpret_cast<const CellId*>(blob.data() + out_begin), out_count);
    return Status::OK();
  }
  std::vector<CellId> copy(in_count + out_count);
  if (in_count + out_count > 0) {
    std::memcpy(copy.data(), blob.data() + in_begin,
                (in_count + out_count) * 8);
  }
  fn(Slice(blob.data() + 8, data_len), copy.data(), in_count,
     copy.data() + in_count, out_count);
  return Status::OK();
}

std::vector<CellId> Graph::LocalNodes(MachineId machine) const {
  std::vector<CellId> result;
  const auto pin = cloud_->trunks(machine);
  if (pin == nullptr) return result;
  pin->ForEachPrimary([&](TrunkId, const storage::MemoryTrunk& trunk) {
    std::vector<CellId> ids = trunk.CellIds();
    result.insert(result.end(), ids.begin(), ids.end());
  });
  return result;
}

std::uint64_t Graph::CountNodes() const {
  return cloud_->TotalCellCount();
}

}  // namespace trinity::graph
