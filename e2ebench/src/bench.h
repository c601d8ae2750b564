// Shared declarations of the end-to-end benchmark: the fact table the
// brute-force checker evaluates over, the query specifications of the
// Fig 9 query mixes, sample/metric collection, and the live phase.
//
// Every query the benchmark sends to QueryEngine::Execute is generated
// together with a structural description (QuerySpec) that brute.cc
// evaluates directly over the generated triples, without the engine, so
// each answer is checked against a computation made apart from it.
#ifndef RDFTX_E2EBENCH_BENCH_H_
#define RDFTX_E2EBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "dict/dictionary.h"
#include "engine/binding.h"
#include "optimizer/optimizer.h"
#include "rdf/temporal_graph.h"
#include "rdf/triple.h"
#include "temporal/temporal_set.h"

namespace e2e {

using rdftx::Chronon;
using rdftx::Interval;
using rdftx::TemporalSet;
using rdftx::TermId;
using rdftx::Triple;

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}
inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Query classes of the mix (Fig 9a selection, 9b join, 9c complex, and
/// the analytic scans/aggregates whose cost sits after the scan).
enum Class { kSelect = 0, kJoin = 1, kComplex = 2, kAnalytic = 3 };
inline constexpr int kNumClasses = 4;
const char* ClassName(int cls);

/// One triple with its full coalesced validity.
struct Fact {
  Triple t;
  TemporalSet validity;
};

/// The generated history as the checker sees it: one Fact per distinct
/// triple, plus a per-predicate index.
struct Facts {
  std::vector<Fact> all;
  std::unordered_map<TermId, std::vector<uint32_t>> by_predicate;
  std::unordered_map<TermId, std::vector<uint32_t>> by_subject;
  Chronon horizon = 0;  // latest closed event time of the history
};

Facts BuildFacts(const std::vector<rdftx::TemporalTriple>& triples,
                 Chronon horizon);

/// One triple pattern: constants are nonzero ids; variable positions
/// carry a variable index into QuerySpec::var_names. The time position
/// is either the shared ?t (clipped to QuerySpec::window) or a constant.
struct Pat {
  TermId s = 0, p = 0, o = 0;
  int vs = -1, vp = -1, vo = -1;
  bool time_var = true;
  Chronon at = 0;
};

/// Projection entry meaning "the shared time variable ?t".
inline constexpr int kTimeVar = -2;

struct QuerySpec {
  enum Shape { kRows, kCountBy, kTopK };
  int cls = kSelect;
  std::string text;
  std::vector<std::string> var_names;  // key variables, by index
  std::vector<Pat> pats;
  Interval window = Interval::All();   // scan window of ?t patterns
  std::vector<int> proj;               // key var indices or kTimeVar
  Shape shape = kRows;
  // kCountBy: group by var `group_var`, count bound `count_var`.
  int group_var = -1, count_var = -1;
  // kTopK: ORDER BY the projected column `order_col`, LIMIT `limit`.
  int order_col = -1;
  bool descending = false;
  size_t limit = 0;
};

/// The expected answer of one query: canonical rows (one string per
/// row, cells in projection order) and order-independent fingerprints.
struct Expected {
  std::vector<std::string> rows;  // sorted; kTopK: the full ordered set
  uint64_t set_hash = 0;          // sum of row hashes (kRows / kCountBy)
  // Rows an engine scan of each pattern yields (one per triple with a
  // non-empty clipped validity), in spec order.
  std::vector<uint64_t> pattern_rows;
  bool empty = true;  // no solution before projection
};

/// Brute-force evaluation of `q` over `facts`. Patterns are joined in
/// spec order.
Expected Evaluate(const QuerySpec& q, const Facts& facts,
                  const rdftx::Dictionary& dict);

/// Whether an engine's rows_scanned fits a left-deep run of the patterns
/// in `order`: the sum of all pattern rows when the answer is not empty;
/// otherwise the sum over some prefix of `order` (the serial pipeline
/// stops scanning after the step that empties the result).
bool RowsScannedMatches(const Expected& e, const std::vector<int>& order,
                        uint64_t rows_scanned);

/// Canonical row strings of an engine result, in result order.
std::vector<std::string> CanonicalRows(const rdftx::engine::ResultSet& rs);
/// Canonical form of one temporal cell (its runs, not the display form)
/// and of one term cell.
std::string TimeCell(const TemporalSet& t);
std::string KeyCell(const std::string& term);
uint64_t RowHash(const std::string& row);

/// Checks an engine result against the expected answer. On mismatch,
/// fills `why` with a short description.
bool Matches(const QuerySpec& q, const Expected& e,
             const rdftx::engine::ResultSet& rs, std::string* why);

/// The numeric-aware term order of ORDER BY: numbers before other
/// terms, numbers by value, the rest bytewise.
int CompareTerms(const std::string& a, const std::string& b);

/// Query mix generation (mix.cc): 1600 selections, three joins for each
/// of 32 predicate pairs, 3..7-pattern complex queries on 16 subjects,
/// and three analytic queries for each of the 10 most frequent
/// predicates.
std::vector<QuerySpec> MakeMix(const Facts& facts,
                               const rdftx::Dictionary& dict, uint64_t seed);

/// Selection of one (subject, predicate) with a window ending at `hi`:
/// `SELECT ?o ?t { S P ?o ?t . FILTER(?t >= lo && ?t <= hi) }`.
QuerySpec KeySelection(TermId s, TermId p, Chronon lo, Chronon hi,
                       const rdftx::Dictionary& dict);

/// Samples of one metric.
struct Samples {
  std::vector<double> v;
  void Add(double x) { v.push_back(x); }
  double Quantile(double q) const;  // nearest-rank on a sorted copy
  double Mean() const;
  double GeoMean() const;  // of positive samples
  size_t size() const { return v.size(); }
};

/// Metric sink: name -> (value, unit), printed as the result JSON.
struct Metrics {
  std::map<std::string, std::pair<double, std::string>> values;
  void Set(const std::string& name, double value, const std::string& unit) {
    values[name] = {value, unit};
  }
};

/// Outcome counters of a run.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  void Fail(const std::string& what);     // operation returned an error
  void Wrong(const std::string& what);    // operation returned a wrong answer
};

/// Everything the live phase needs from its caller.
struct LiveInputs {
  rdftx::TemporalGraph* base = nullptr;   // saved as the base snapshot
  rdftx::Dictionary* dict = nullptr;      // mirror of the store's dictionary
  const Facts* facts = nullptr;
  const rdftx::optimizer::QueryOptimizer* optimizer = nullptr;
  std::string dir;   // LiveStore directory, created and removed here
  uint64_t seed = 1;
  bool trace = false;  // probe the epoch overlay at each key read
};

struct LiveResult {
  Samples write_ms, checkpoint_s, recovery_samples_s;
  Samples key_read_ms;               // model-checked edited-key reads
  // Per round: the slowest writer's span from its first write to its
  // last acknowledgement.
  Samples write_span_s;
  uint64_t writes_per_round = 0;
  Samples replayed_records;  // WAL records before each timed recovery
  double wal_bytes_per_write = 0;
  double snapshot_bytes = 0;
  Samples overlay_deltas, first_scan_ms, repeat_scan_ms;
};

/// A LiveStore under concurrent edits, driven round by round from the
/// calling thread (live.cc). Open() writes the base snapshot, opens the
/// store and starts the writers; each Round() commits one round of edits
/// while this thread reads, restarting and checkpointing the store at
/// fixed delta counts; Finish() ends with a checkpoint, the tail and a
/// checked recovery. A failed open or recovery stops the writers, and
/// later rounds do nothing. The destructor joins the writers and removes
/// the store directory on every path.
class LivePhase {
 public:
  LivePhase(const LiveInputs& in, Tally* tally);
  ~LivePhase();
  LivePhase(const LivePhase&) = delete;
  LivePhase& operator=(const LivePhase&) = delete;

  bool Open();
  void Round();
  void Finish();
  const LiveResult& result() const;

 private:
  struct State;
  std::unique_ptr<State> s_;
};

}  // namespace e2e

#endif  // RDFTX_E2EBENCH_BENCH_H_
