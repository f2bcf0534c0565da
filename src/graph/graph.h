#ifndef TRINITY_GRAPH_GRAPH_H_
#define TRINITY_GRAPH_GRAPH_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cloud/memory_cloud.h"
#include "common/status.h"
#include "common/types.h"

namespace trinity::graph {

/// Fully materialized image of one graph node, used for bulk loading and for
/// round-tripping cells.
struct NodeImage {
  CellId id = kInvalidCell;
  std::string data;           ///< Opaque node payload (e.g. a name).
  std::vector<CellId> out;    ///< Outgoing neighbors (SimpleEdge cell ids).
  std::vector<CellId> in;     ///< Incoming neighbors (directed graphs).
};

/// Trinity's graph model on top of the memory cloud (paper §4.1): a node is
/// a cell; SimpleEdges are the cellids of the neighbors stored inside the
/// node cell. Rich-edge (StructEdge/HyperEdge) modeling is done at the TSL
/// layer by storing edge-cell ids here and materializing edge cells
/// separately (see examples/knowledge_graph.cc).
///
/// Node cell layout (byte-compatible with the TSL encoding of
///   `cell struct Node { int InCount; string Data; /* raw ids */ }`):
///
///   [u32 in_count][u32 data_len][data][in ids (8B)...][out ids (8B)...]
///
/// The out-list deliberately sits at the *end* of the blob so that the hot
/// mutation — adding an outgoing edge — is a pure AppendToCell, which rides
/// the memory trunk's short-lived reservation mechanism (§6.1). The
/// out-degree is derived from the cell size, so appends touch no header.
class Graph {
 public:
  struct Options {
    bool directed = true;
    /// Maintain incoming adjacency. In-link inserts are read-modify-write
    /// (they land in the middle of the blob), so analytics-only graphs that
    /// push along out-edges can turn this off.
    bool track_inlinks = true;
  };

  Graph(cloud::MemoryCloud* cloud, Options options);
  /// Directed graph with in-link tracking.
  explicit Graph(cloud::MemoryCloud* cloud);

  Graph(const Graph&) = delete;
  Graph& operator=(const Graph&) = delete;

  const Options& options() const { return options_; }
  cloud::MemoryCloud* cloud() { return cloud_; }

  // --- Construction -------------------------------------------------------
  /// Adds an isolated node carrying `data`.
  Status AddNode(CellId id, Slice data);
  Status AddNodeFrom(MachineId src, CellId id, Slice data);

  /// Adds an edge. Directed: appends `to` to from's out-list (and `from` to
  /// to's in-list when tracked). Undirected: appends each endpoint to the
  /// other's out-list. Both endpoints must exist.
  Status AddEdge(CellId from, CellId to);
  Status AddEdgeFrom(MachineId src, CellId from, CellId to);

  /// Writes a fully-formed node in one cell store — the bulk-load path used
  /// by the graph generators.
  Status BulkAddNode(MachineId src, const NodeImage& node);

  /// Low-level adjacency editing for rich-edge modeling (StructEdge /
  /// HyperEdge cells store *edge* ids in the adjacency lists): appends
  /// `value` to node's out-list, or inserts it into the in-list, without
  /// interpreting it as a node id.
  Status AppendRawOutEntry(CellId node, CellId value);
  Status InsertRawInEntry(CellId node, CellId value);

  /// Encodes a NodeImage into the cell blob layout (exposed for tests and
  /// for engines that build cells directly).
  static std::string EncodeNode(const NodeImage& node);
  /// Decodes a cell blob; returns Corruption on malformed input.
  static Status DecodeNode(CellId id, Slice blob, NodeImage* out);

  // --- Queries ------------------------------------------------------------
  bool HasNode(CellId id);
  Status GetOutlinks(CellId id, std::vector<CellId>* out);
  Status GetOutlinksFrom(MachineId src, CellId id, std::vector<CellId>* out);
  Status GetInlinks(CellId id, std::vector<CellId>* out);
  Status GetInlinksFrom(MachineId src, CellId id, std::vector<CellId>* out);
  Status GetNodeData(CellId id, std::string* out);
  Status GetNodeDataFrom(MachineId src, CellId id, std::string* out);
  Status SetNodeData(CellId id, Slice data);
  Status OutDegreeFrom(MachineId src, CellId id, std::size_t* out);

  /// Zero-copy visit of a node hosted on `machine`: fn receives the node's
  /// in/out adjacency and data directly over trunk memory (the cell stays
  /// pinned for the duration). Returns NotFound when the node is not local.
  using LocalVisitor = std::function<void(Slice data, const CellId* in,
                                          std::size_t in_count,
                                          const CellId* out,
                                          std::size_t out_count)>;
  Status VisitLocalNode(MachineId machine, CellId id,
                        const LocalVisitor& fn) const;

  /// Same, against machine's already-pinned trunk snapshot
  /// (`cloud()->trunks(m)`; null means not a member). Engines and scans pin
  /// one per sweep or scan and visit every vertex this way; concurrent const
  /// access is safe, as the trunk pins the cell for the visit.
  Status VisitLocalNode(const storage::MemoryStorage::Trunks* trunks,
                        CellId id, const LocalVisitor& fn) const;

  /// Node ids hosted on `machine` (scans its trunks).
  std::vector<CellId> LocalNodes(MachineId machine) const;

  /// Owner machine of a node, per the primary addressing table.
  MachineId MachineOfNode(CellId id) const { return cloud_->MachineOf(id); }

  /// Total node count across the cloud (full scan; cache if hot).
  std::uint64_t CountNodes() const;

 private:
  /// Parses the fixed header. Returns false on malformed blobs.
  static bool ParseHeader(Slice blob, std::uint32_t* in_count,
                          std::uint32_t* data_len, std::size_t* in_begin,
                          std::size_t* out_begin, std::size_t* out_count);

  Status InsertInlink(MachineId src, CellId node, CellId from);

  cloud::MemoryCloud* cloud_;
  const Options options_;
};

}  // namespace trinity::graph

#endif  // TRINITY_GRAPH_GRAPH_H_
