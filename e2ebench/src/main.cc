// rdftx_e2e: the end-to-end, per-layer benchmark program.
//
//   rdftx_e2e --workload <wiki-history|govtrack-history>
//             --seed <n> --seconds <s> --trace <0|1> --workdir <dir>
//
// Generates the workload's inputs from the seed, sets up the store, and
// runs whole rounds of the workload's operations in a closed loop for
// the given time, checking every answer against a brute-force
// evaluation. The last line of standard output is one JSON object with
// `correct`, `attempted`, `failed` and `metrics`: with --trace 0 the
// end-to-end metrics, with --trace 1 the per-layer metrics of a traced
// run (spans timed from here, around each layer's public functions).
// Environment variables do not influence inputs or set-up. The exit code
// is 0 only if every operation succeeded, every answer was right and
// every metric was measured.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <string>

#include "bench.h"
#include "engine/executor.h"
#include "engine/translate.h"
#include "engine/vectorized.h"
#include "optimizer/char_set.h"
#include "optimizer/histogram.h"
#include "sparqlt/parser.h"
#include "util/rng.h"
#include "workload/govtrack_gen.h"
#include "workload/wikipedia_gen.h"

namespace e2e {

// ---------------------------------------------------------------------------
// Small shared pieces

double Samples::Quantile(double q) const {
  if (v.empty()) return 0;
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(s.size())));
  return s[std::min(s.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Samples::GeoMean() const {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double Samples::Mean() const {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

namespace {
int g_reported = 0;
void Report(const char* kind, const std::string& what) {
  if (g_reported++ < 20) std::fprintf(stderr, "%s: %s\n", kind, what.c_str());
}
}  // namespace

void Tally::Fail(const std::string& what) {
  ++failed;
  Report("failed", what);
}

void Tally::Wrong(const std::string& what) {
  correct = false;
  Report("wrong", what);
}

namespace {

/// Per-layer accumulators of the traced run, per query class.
struct LayerAcc {
  Samples parse_ms, compile_ms, order_ms, engine_scan_ms, store_scan_ms,
      post_scan_ms;
  Samples rows_scanned, join_output_rows, result_rows;
  Samples leaves_visited, leaves_pruned, entries_decoded, cache_hits,
      cache_misses, cache_evictions;
};

/// Per-class latency samples of a query mix, one value per distinct
/// query: the median of that query's executions. Each query weighs the
/// same however often a run executed it.
void PerQueryMedians(const std::vector<QuerySpec>& mix,
                     const std::vector<Samples>& per_query,
                     Samples (&out)[kNumClasses]) {
  for (size_t i = 0; i < mix.size(); ++i) {
    if (per_query[i].size() > 0) out[mix[i].cls].Add(per_query[i].Quantile(0.5));
  }
}

std::vector<int> KeySlots(const rdftx::engine::CompiledPattern& cp) {
  std::vector<int> slots;
  for (int s : {cp.var_s, cp.var_p, cp.var_o}) {
    if (s >= 0) slots.push_back(s);
  }
  return slots;
}

/// The scan output order the executor requests per step of `order`
/// (the first join's key for step 0, each merge join's key after).
std::vector<int> SortRequests(const rdftx::engine::CompiledQuery& cq,
                              const std::vector<int>& order) {
  const size_t n = order.size();
  std::vector<int> req(n, -1);
  if (n == 0) return req;
  std::set<int> bound;
  for (int s : KeySlots(cq.patterns[static_cast<size_t>(order[0])])) bound.insert(s);
  for (size_t step = 1; step < n; ++step) {
    const auto& cp = cq.patterns[static_cast<size_t>(order[step])];
    std::vector<int> shared;
    for (int s : KeySlots(cp)) {
      if (bound.contains(s)) shared.push_back(s);
    }
    if (shared.size() == 1) req[step] = shared[0];
    for (int s : KeySlots(cp)) bound.insert(s);
  }
  if (n > 1) req[0] = req[1];
  return req;
}

/// Records the untraced per-query counters of a result into `acc`.
void AddCounters(const rdftx::engine::ExecStats& s, LayerAcc* acc) {
  acc->rows_scanned.Add(static_cast<double>(s.rows_scanned));
  acc->join_output_rows.Add(static_cast<double>(s.join_output_rows));
  acc->result_rows.Add(static_cast<double>(s.result_rows));
  acc->leaves_visited.Add(static_cast<double>(s.scan.leaves_visited));
  acc->leaves_pruned.Add(static_cast<double>(s.scan.leaves_pruned));
  acc->entries_decoded.Add(static_cast<double>(s.scan.entries_decoded));
  acc->cache_hits.Add(static_cast<double>(s.scan.cache_hits));
  acc->cache_misses.Add(static_cast<double>(s.scan.cache_misses));
  acc->cache_evictions.Add(static_cast<double>(s.scan.cache_evictions));
}

/// Runs one Execute, storing its time in `exec_ms`, then times parse,
/// compile, join-order choice, and the engine and raw store scans of
/// each pattern Execute scanned, and accumulates them into `acc`.
/// Returns the Execute result.
rdftx::Result<rdftx::engine::ResultSet> TracedExecute(
    const rdftx::engine::QueryEngine& engine,
    const rdftx::TemporalStore& store, const rdftx::Dictionary& dict,
    const rdftx::optimizer::QueryOptimizer& opt, const std::string& text,
    LayerAcc* acc, double* exec_ms) {
  namespace eng = rdftx::engine;
  Clock::time_point t0 = Clock::now();
  auto res = engine.Execute(text);
  *exec_ms = MsSince(t0);
  if (!res.ok()) return res;

  t0 = Clock::now();
  auto parsed = rdftx::sparqlt::Parse(text);
  const double parse_ms = MsSince(t0);
  if (!parsed.ok()) return parsed.status();
  t0 = Clock::now();
  auto cq = eng::Compile(*parsed, dict);
  const double compile_ms = MsSince(t0);
  if (!cq.ok()) return cq.status();
  t0 = Clock::now();
  const std::vector<int> order = opt.ChooseOrder(*cq);
  const double order_ms = MsSince(t0);

  // Only the patterns Execute scanned: its serial pipeline stops after
  // the first step that leaves the joined result empty.
  const size_t steps =
      std::min<size_t>(order.size(), res->stats.patterns_scanned);
  const std::vector<int> sort_req = SortRequests(*cq, order);
  eng::BlockPool pool;
  double scan_ms = 0, store_ms = 0;
  for (size_t step = 0; step < steps; ++step) {
    const eng::CompiledPattern& cp = cq->patterns[static_cast<size_t>(order[step])];
    eng::BlockRun run;
    eng::ExecStats st;
    t0 = Clock::now();
    eng::VectorizedScan(store, cp, cq->vars.size(), cq->vars, sort_req[step],
                        &pool, &run, &st);
    scan_ms += MsSince(t0);
    t0 = Clock::now();
    if (!cp.never_matches) {
      store.ScanPattern(cp.spec, [](const Triple&, const Interval&) {});
    }
    store_ms += MsSince(t0);
  }
  acc->parse_ms.Add(parse_ms);
  acc->compile_ms.Add(compile_ms);
  acc->order_ms.Add(order_ms);
  acc->engine_scan_ms.Add(scan_ms);
  acc->store_scan_ms.Add(store_ms);
  acc->post_scan_ms.Add(*exec_ms - parse_ms - compile_ms - order_ms - scan_ms);
  return res;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".bench_build/e2e-work";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--workdir") {
      a->workdir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0;
}

/// The loaded store and its statistics.
struct Loaded {
  rdftx::Dictionary dict;
  rdftx::workload::Dataset data;
  rdftx::TemporalGraph graph;
  rdftx::optimizer::CharSetCatalog catalog;
  std::unique_ptr<rdftx::optimizer::TemporalHistogram> histogram;
  std::unique_ptr<rdftx::optimizer::QueryOptimizer> optimizer;
  double generate_s = 0, load_s = 0, catalog_s = 0, histogram_s = 0;
  double index_bytes = 0, dict_bytes = 0, histogram_bytes = 0;  // at set-up
};

enum class Shape { kWikipedia, kGovTrack };

/// Generation, load, catalog and histogram: the set-up every workload
/// pays before its first query.
bool LoadHistory(Shape shape, size_t triples, uint64_t seed, Loaded* l,
                 Tally* tally) {
  Clock::time_point t0 = Clock::now();
  if (shape == Shape::kWikipedia) {
    l->data = rdftx::workload::GenerateWikipedia(
        &l->dict, {.num_triples = triples, .seed = seed});
  } else {
    l->data = rdftx::workload::GenerateGovTrack(
        &l->dict, {.num_triples = triples, .seed = seed});
  }
  l->generate_s = SecondsSince(t0);
  t0 = Clock::now();
  ++tally->attempted;
  rdftx::Status st = l->graph.Load(l->data.triples);
  l->load_s = SecondsSince(t0);
  if (!st.ok()) {
    tally->Fail("load: " + st.ToString());
    return false;
  }
  t0 = Clock::now();
  l->catalog.Build(l->data.triples);
  l->catalog_s = SecondsSince(t0);
  t0 = Clock::now();
  l->histogram = std::make_unique<rdftx::optimizer::TemporalHistogram>(
      &l->catalog, l->data.triples,
      l->data.triples.size() * sizeof(rdftx::TemporalTriple));
  l->optimizer = std::make_unique<rdftx::optimizer::QueryOptimizer>(
      &l->catalog, l->histogram.get());
  l->histogram_s = SecondsSince(t0);
  l->index_bytes = static_cast<double>(l->graph.MemoryUsage());
  l->dict_bytes = static_cast<double>(l->dict.MemoryUsage());
  l->histogram_bytes = static_cast<double>(l->histogram->MemoryUsage() +
                                           l->catalog.MemoryUsage());
  return true;
}

std::vector<Expected> EvaluateAll(const std::vector<QuerySpec>& mix,
                                  const Facts& facts,
                                  const rdftx::Dictionary& dict) {
  std::vector<Expected> out;
  out.reserve(mix.size());
  for (const QuerySpec& q : mix) out.push_back(Evaluate(q, facts, dict));
  return out;
}

/// Checks one execution of `q`: its rows against the brute-force
/// answer and, on the query's first checked execution (`first`), the
/// engine's rows_scanned against the brute-force scan of the same
/// patterns in the optimizer's order.
void CheckAnswer(const rdftx::Dictionary& dict,
                 const rdftx::optimizer::QueryOptimizer& opt,
                 const QuerySpec& q, const Expected& expected,
                 const rdftx::engine::ResultSet& rs, bool first,
                 Tally* tally) {
  std::string why;
  if (!Matches(q, expected, rs, &why)) {
    tally->Wrong(why + " in " + q.text);
    return;
  }
  if (!first) return;
  // For a non-empty answer every pattern is scanned, in any order; for
  // an empty one the optimizer's order decides where scanning stops.
  std::vector<int> order(q.pats.size());
  for (size_t k = 0; k < order.size(); ++k) order[k] = static_cast<int>(k);
  if (expected.empty) {
    auto parsed = rdftx::sparqlt::Parse(q.text);
    auto cq = parsed.ok() ? rdftx::engine::Compile(*parsed, dict)
                          : rdftx::Result<rdftx::engine::CompiledQuery>(
                                parsed.status());
    if (!cq.ok()) {
      tally->Wrong("recompile failed: " + cq.status().ToString());
      return;
    }
    order = opt.ChooseOrder(*cq);
  }
  if (!RowsScannedMatches(expected, order, rs.stats.rows_scanned)) {
    tally->Wrong("rows_scanned " + std::to_string(rs.stats.rows_scanned) +
                 " does not match the brute-force scans in " + q.text);
  }
}

/// Per-layer metrics of the traced run; `lat` holds its Execute
/// latencies, reported for the tracing overhead.
void SetLayers(const LayerAcc (&layers)[kNumClasses],
               const Samples (&lat)[kNumClasses], Metrics* m) {
  for (int c = 0; c < kNumClasses; ++c) {
    const LayerAcc& a = layers[c];
    const std::string n = ClassName(c);
    m->Set("traced." + n + "_geomean_ms", lat[c].GeoMean(), "ms");
    m->Set("sparqlt.parse_ms." + n, a.parse_ms.Mean(), "ms");
    m->Set("engine.compile_ms." + n, a.compile_ms.Mean(), "ms");
    m->Set("optimizer.choose_order_ms." + n, a.order_ms.Mean(), "ms");
    m->Set("engine.scan_ms." + n, a.engine_scan_ms.Mean(), "ms");
    m->Set("store.scan_ms." + n, a.store_scan_ms.Mean(), "ms");
    m->Set("engine.post_scan_ms." + n, a.post_scan_ms.Mean(), "ms");
    m->Set("engine.rows_scanned." + n, a.rows_scanned.Mean(), "rows");
    m->Set("engine.join_output_rows." + n, a.join_output_rows.Mean(), "rows");
    m->Set("engine.result_rows." + n, a.result_rows.Mean(), "rows");
    m->Set("mvbt.leaves_visited." + n, a.leaves_visited.Mean(), "count");
    m->Set("mvbt.leaves_pruned." + n, a.leaves_pruned.Mean(), "count");
    m->Set("mvbt.entries_decoded." + n, a.entries_decoded.Mean(), "count");
    m->Set("mvbt.cache_hits." + n, a.cache_hits.Mean(), "count");
    m->Set("mvbt.cache_misses." + n, a.cache_misses.Mean(), "count");
    m->Set("mvbt.cache_evictions." + n, a.cache_evictions.Mean(), "count");
  }
}

/// Metrics every workload reports from its set-up and live phase.
void SetCommon(const Loaded& l, double setup_s, const LiveResult& live,
               Metrics* e2e, Metrics* layer) {
  e2e->Set("setup_s", setup_s, "s");
  e2e->Set("store_bytes", l.index_bytes + l.dict_bytes + l.histogram_bytes,
           "bytes");
  // Every round commits the same number of writes; its slowest writer
  // sets the round's rate, and the median round keeps an occasional slow
  // fsync from setting the reported one.
  const double span_s = live.write_span_s.Quantile(0.5);
  layer->Set("wal.acked_writes_per_s",
             span_s > 0 ? static_cast<double>(live.writes_per_round) / span_s
                        : 0,
             "writes/s");
  layer->Set("wal.write_p50_ms", live.write_ms.Quantile(0.5), "ms");
  // The tail holds the reads that build a round's overlay; beside three
  // committing writers it spread too widely over seeds to gate on, so it
  // is a layer figure.
  e2e->Set("live_read_p50_ms", live.key_read_ms.Quantile(0.5), "ms");
  layer->Set("epoch.live_read_p99_ms", live.key_read_ms.Quantile(0.99), "ms");
  // Checkpoint and recovery each write or reread a whole snapshot and
  // fsync; their medians spread past the largest allowed bound over
  // seeds, so they are layer figures.
  layer->Set("checkpoint.fold_s", live.checkpoint_s.Quantile(0.5), "s");
  layer->Set("recovery.open_s", live.recovery_samples_s.Quantile(0.5), "s");

  layer->Set("setup.generate_s", l.generate_s, "s");
  layer->Set("setup.load_s", l.load_s, "s");
  layer->Set("setup.catalog_s", l.catalog_s, "s");
  layer->Set("setup.histogram_s", l.histogram_s, "s");
  layer->Set("index_bytes", l.index_bytes, "bytes");
  layer->Set("dict_bytes", l.dict_bytes, "bytes");
  layer->Set("histogram_bytes", l.histogram_bytes, "bytes");
  layer->Set("wal.bytes_per_write", live.wal_bytes_per_write, "bytes");
  layer->Set("epoch.overlay_deltas", live.overlay_deltas.Mean(), "count");
  layer->Set("epoch.first_scan_ms", live.first_scan_ms.Mean(), "ms");
  layer->Set("epoch.repeat_scan_ms", live.repeat_scan_ms.Mean(), "ms");
  layer->Set("recovery.records_replayed", live.replayed_records.Quantile(0.5),
             "count");
  layer->Set("snapshot.bytes", live.snapshot_bytes, "bytes");
}

/// A class's typical latency is the geometric mean over its distinct
/// queries: a class mixes query shapes whose latencies differ by more
/// than an order of magnitude, and a median over them sits at the seam
/// between two shapes, where it jumps from seed to seed.
void SetQueryLatencies(const Samples (&lat)[kNumClasses], Metrics* m) {
  m->Set("select_geomean_ms", lat[kSelect].GeoMean(), "ms");
  m->Set("select_p95_ms", lat[kSelect].Quantile(0.95), "ms");
  m->Set("join_geomean_ms", lat[kJoin].GeoMean(), "ms");
  m->Set("complex_geomean_ms", lat[kComplex].GeoMean(), "ms");
  m->Set("analytic_geomean_ms", lat[kAnalytic].GeoMean(), "ms");
}

/// wiki-history / govtrack-history: the Fig 9 mix on a sealed
/// TemporalGraph, interleaved slice by slice with rounds of a live phase
/// on a snapshot of the same history, for the measured time.
void RunHistory(Shape shape, const Args& args, Clock::time_point start,
                Tally* tally, Metrics* e2e, Metrics* layer) {
  Loaded l;
  const size_t triples = shape == Shape::kWikipedia ? 200000 : 120000;
  if (!LoadHistory(shape, triples, args.seed, &l, tally)) return;
  const double setup_s = SecondsSince(start);

  const Facts facts = BuildFacts(l.data.triples, l.data.horizon);
  const std::vector<QuerySpec> mix = MakeMix(facts, l.dict, args.seed);
  const std::vector<Expected> expected = EvaluateAll(mix, facts, l.dict);
  std::fprintf(stderr,
               "%zu triples, %zu facts, %zu terms, %zu predicates, %zu "
               "queries; setup %.2fs (generate %.2f load %.2f catalog %.2f "
               "histogram %.2f), answers %.2fs\n",
               l.data.triples.size(), facts.all.size(), l.dict.size(),
               facts.by_predicate.size(), mix.size(), setup_s, l.generate_s,
               l.load_s, l.catalog_s, l.histogram_s,
               SecondsSince(start) - setup_s);

  rdftx::engine::QueryEngine engine(&l.graph, &l.dict);
  engine.set_join_order_provider(l.optimizer->AsProvider());
  // Warm-up: one untimed, checked execution of every selection, join
  // and analytic query fills the leaf cache. The complex queries, whose
  // time is mostly join-order choice over patterns these already read,
  // are checked in full at their first timed execution instead, which
  // leaves the measured loop a whole pass more of them.
  std::vector<bool> checked(mix.size(), false);
  for (size_t i = 0; i < mix.size(); ++i) {
    if (mix[i].cls == kComplex) continue;
    ++tally->attempted;
    auto rs = engine.Execute(mix[i].text);
    if (!rs.ok()) {
      tally->Fail(rs.status().ToString() + " in " + mix[i].text);
      continue;
    }
    CheckAnswer(l.dict, *l.optimizer, mix[i], expected[i], *rs,
                /*first=*/true, tally);
    checked[i] = true;
  }
  std::fprintf(stderr, "warm-up done at %.2fs\n", SecondsSince(start));

  // The live phase shares the dictionary: it interns its edit values
  // after the mix is compiled, which leaves the mix's ids unchanged.
  LiveInputs in;
  in.base = &l.graph;
  in.dict = &l.dict;
  in.facts = &facts;
  in.optimizer = l.optimizer.get();
  in.dir = args.workdir + "/live";
  in.seed = args.seed;
  in.trace = args.trace;
  LivePhase live(in, tally);
  if (!live.Open()) return;

  // One pass = every mix query once, in one seeded order, cut into
  // slices. The loop runs slice after slice, passes repeating, and ends
  // at the first slice boundary after the measured time. Each of the
  // first kLiveRounds slices is followed by one live round; live rounds
  // still missing then run on their own, so every run has the same live
  // rounds, restarts and checkpoints.
  std::vector<size_t> perm(mix.size());
  for (size_t i = 0; i < perm.size(); ++i) perm[i] = i;
  rdftx::Rng rng(args.seed + 99);
  for (size_t i = perm.size(); i > 1; --i) std::swap(perm[i - 1], perm[rng.Uniform(i)]);
  constexpr size_t kSlices = 32;
  constexpr size_t kLiveRounds = 64;
  size_t live_rounds = 0;

  std::vector<Samples> per_query(mix.size());
  LayerAcc layers[kNumClasses];
  const Clock::time_point loop0 = Clock::now();
  // At least one whole pass, so every query is executed and checked.
  for (size_t it = 0; it < kSlices || SecondsSince(loop0) < args.seconds;
       ++it) {
    const size_t slice = it % kSlices;
    const size_t lo = perm.size() * slice / kSlices;
    const size_t hi = perm.size() * (slice + 1) / kSlices;
    for (size_t k = lo; k < hi; ++k) {
      const QuerySpec& q = mix[perm[k]];
      ++tally->attempted;
      double ms = 0;
      const Clock::time_point t0 = Clock::now();
      auto rs = args.trace ? TracedExecute(engine, l.graph, l.dict,
                                           *l.optimizer, q.text,
                                           &layers[q.cls], &ms)
                           : engine.Execute(q.text);
      if (!args.trace) ms = MsSince(t0);
      if (!rs.ok()) {
        tally->Fail(rs.status().ToString() + " in " + q.text);
        continue;
      }
      per_query[perm[k]].Add(ms);
      AddCounters(rs->stats, &layers[q.cls]);
      CheckAnswer(l.dict, *l.optimizer, q, expected[perm[k]], *rs,
                  /*first=*/!checked[perm[k]], tally);
      checked[perm[k]] = true;
    }
    if (live_rounds < kLiveRounds) {
      live.Round();
      ++live_rounds;
    }
  }
  for (; live_rounds < kLiveRounds; ++live_rounds) live.Round();
  Samples lat[kNumClasses];
  PerQueryMedians(mix, per_query, lat);
  std::fprintf(stderr, "loop done at %.2fs\n", SecondsSince(start));
  live.Finish();

  SetCommon(l, setup_s, live.result(), e2e, layer);
  SetQueryLatencies(lat, e2e);
  SetLayers(layers, lat, layer);
}

void PrintResult(const Tally& t, const Metrics& m) {
  std::string out = "{\"correct\": ";
  out += t.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(t.attempted);
  out += ", \"failed\": " + std::to_string(t.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : m.values) {
    char num[64];
    std::snprintf(num, sizeof(num), "%.9g",
                  std::isfinite(vu.first) ? vu.first : 0.0);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" +
           vu.second + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  const Clock::time_point start = Clock::now();
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <wiki-history|govtrack-history> "
                 "--seed <n> --seconds <s> --trace <0|1> [--workdir <dir>]\n",
                 argv[0]);
    return 2;
  }
  Tally tally;
  Metrics e2e_metrics, layer_metrics;
  if (args.workload == "wiki-history") {
    RunHistory(Shape::kWikipedia, args, start, &tally, &e2e_metrics,
               &layer_metrics);
  } else if (args.workload == "govtrack-history") {
    RunHistory(Shape::kGovTrack, args, start, &tally, &e2e_metrics,
               &layer_metrics);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  if (tally.attempted == 0) tally.attempted = 1;
  // A run that stopped early leaves end-to-end metrics unset or at 0.
  bool measured = !e2e_metrics.values.empty();
  for (const auto& [name, vu] : e2e_metrics.values) {
    if (!(vu.first > 0) || !std::isfinite(vu.first)) {
      std::fprintf(stderr, "metric %s was not measured\n", name.c_str());
      measured = false;
    }
  }
  PrintResult(tally, args.trace ? layer_metrics : e2e_metrics);
  return tally.correct && tally.failed == 0 && measured ? 0 : 1;
}
