#ifndef TRINITY_QUERY_RDF_STORE_H_
#define TRINITY_QUERY_RDF_STORE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "cloud/memory_cloud.h"
#include "common/status.h"
#include "net/cost_model.h"

namespace trinity::query {

/// Entity types and predicates of the LUBM-shaped university knowledge base
/// used for the Fig 14(b) SPARQL experiments (the paper runs four SPARQL
/// queries on LUBM with ~1.4 G triples through the Trinity-based RDF engine
/// [36]; this reproduction generates the same shape at reduced scale).
enum class EntityType : std::uint32_t {
  kUniversity = 1,
  kDepartment = 2,
  kProfessor = 3,
  kStudent = 4,
  kCourse = 5,
};

enum class Predicate : std::uint32_t {
  kSubOrganizationOf = 1,  ///< Department -> University.
  kWorksFor = 2,           ///< Professor -> Department.
  kMemberOf = 3,           ///< Student -> Department.
  kAdvisor = 4,            ///< Student -> Professor.
  kTeacherOf = 5,          ///< Professor -> Course.
  kTakesCourse = 6,        ///< Student -> Course.
};

/// A graph-native RDF store on the memory cloud (paper §8 ref [36]: "A
/// distributed graph engine for web scale RDF data"). Each entity is a
/// cell; triples are predicate-tagged adjacency entries stored inside the
/// subject's cell:
///
///   [u32 type][u32 n][(u32 predicate, u64 object) x n]
///
/// Triple inserts append at the end of the blob — the trunk reservation
/// fast path — and queries run as machine-parallel scans plus cell lookups,
/// never relational joins.
class RdfStore {
 public:
  explicit RdfStore(cloud::MemoryCloud* cloud) : cloud_(cloud) {}

  RdfStore(const RdfStore&) = delete;
  RdfStore& operator=(const RdfStore&) = delete;

  cloud::MemoryCloud* cloud() { return cloud_; }

  Status AddEntity(CellId id, EntityType type);
  Status AddTriple(CellId subject, Predicate predicate, CellId object);

  Status GetType(CellId id, EntityType* out);
  /// Objects of (subject, predicate, ?o).
  Status GetObjects(CellId subject, Predicate predicate,
                    std::vector<CellId>* out);
  /// `ctx` (optional) carries the caller's meter set to the fabric.
  Status GetObjectsFrom(MachineId src, CellId subject, Predicate predicate,
                        std::vector<CellId>* out, CallContext* ctx = nullptr);

  struct Triple {
    Predicate predicate;
    CellId object;
  };

  /// Zero-copy scan of every entity hosted on `machine`.
  using EntityVisitor =
      std::function<void(CellId id, EntityType type,
                         const std::function<void(
                             const std::function<void(Predicate, CellId)>&)>&
                             for_each_triple)>;
  Status ScanLocal(MachineId machine, const EntityVisitor& visit);

 private:
  static std::string EncodeEntity(EntityType type);

  cloud::MemoryCloud* cloud_;
};

/// The four SPARQL-style benchmark queries (Fig 14b). Each runs as a
/// distributed job: machine-parallel local scans feeding (possibly remote)
/// cell lookups, all metered through the fabric so query time is modeled
/// per machine count.
class SparqlQueries {
 public:
  struct QueryStats {
    double modeled_millis = 0;
    std::uint64_t results = 0;
    std::uint64_t remote_lookups = 0;
  };

  SparqlQueries(RdfStore* store, net::CostModel cost_model)
      : store_(store), cost_model_(cost_model) {}

  /// Q1: students taking a given course.
  Status StudentsOfCourse(CellId course, QueryStats* stats);
  /// Q2: (department, professor) pairs within a given university.
  Status ProfessorsOfUniversity(CellId university, QueryStats* stats);
  /// Q3: students whose advisor teaches a course they take (triangle).
  Status StudentsAdvisedByTheirTeacher(QueryStats* stats);
  /// Q4: professors (transitively) affiliated with a given university.
  Status ProfessorsAffiliatedWith(CellId university, QueryStats* stats);

 private:
  /// Runs `body(machine, ctx)` once per slave under the query's own meters
  /// (`ctx` carries them to cell lookups) and folds the phase into stats.
  Status RunParallelScan(
      const std::function<Status(MachineId, CallContext*)>& body,
      QueryStats* stats);

  RdfStore* store_;
  net::CostModel cost_model_;
};

}  // namespace trinity::query

#endif  // TRINITY_QUERY_RDF_STORE_H_
