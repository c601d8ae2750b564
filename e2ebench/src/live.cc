// The live phase: a LiveStore opened on a snapshot of the loaded
// history takes rounds of edits from concurrent writers (fsync + group
// commit on) while the calling thread reads, through the query engine,
// the Snapshot() epoch it took when the round began. Each time the
// backlog reaches a fixed delta count the store is closed and recovered
// (replaying exactly that backlog) and then checkpointed. The phase ends with a checkpoint, a fixed tail of
// writes, a close and OpenOrRecover, and the recovered store is checked
// against the benchmark's own event log.
#include <algorithm>
#include <atomic>
#include <barrier>
#include <filesystem>
#include <map>
#include <set>
#include <thread>

#include "bench.h"
#include "core/live_store.h"
#include "engine/executor.h"
#include "rdf/epoch.h"
#include "storage/wal.h"
#include "util/rng.h"

namespace e2e {
namespace {

namespace fs = std::filesystem;
using rdftx::kChrononNow;
using rdftx::LiveStore;

constexpr int kEditValues = 32;
constexpr size_t kWriters = 3;
constexpr size_t kEditsPerRound = 32;     // per writer; retract + assert each
constexpr size_t kKeyReadsPerRound = 16;  // model-checked edited-key reads
// Every 4 rounds: 16 checkpoints in a run's 64 rounds, with a backlog
// of up to 768 deltas between them.
constexpr uint64_t kCheckpointEvery = kWriters * kEditsPerRound * 2 * 4;
constexpr int kTailRounds = 4;            // writes after the final checkpoint

/// One edited (subject, predicate) and its currently live object.
struct Key {
  TermId s = 0, p = 0;
  TermId cur = 0;
};

/// One acknowledged write, as the writer logged it.
struct Event {
  size_t key = 0;
  bool is_assert = false;
  TermId o = 0;
  Chronon at = 0;
};

/// Per-key validity model: object -> validity runs, from the base facts
/// plus every acknowledged write.
using KeyModel = std::map<TermId, std::vector<Interval>>;

void Apply(const Event& e, KeyModel* m) {
  std::vector<Interval>& runs = (*m)[e.o];
  if (e.is_assert) {
    runs.emplace_back(e.at, kChrononNow);
    return;
  }
  for (Interval& r : runs) {
    if (r.end == kChrononNow) r.end = e.at;
  }
}

struct WriterState {
  std::vector<size_t> keys;  // indices into the shared key table
  std::vector<double> lat_ms;
  double span_s = 0;  // first write start to last acknowledgement
  std::vector<Event> log;
  std::vector<std::string> errors;
};

/// Records in the WAL segments of `dir` (what recovery replays), and how
/// many of them are deltas. Returns false if a segment cannot be read.
bool CountWalRecords(const std::string& dir, uint64_t* records,
                     uint64_t* deltas) {
  *records = *deltas = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    uint64_t seq = 0;
    if (!rdftx::storage::ParseWalSegmentFileName(
            entry.path().filename().string(), &seq)) {
      continue;
    }
    rdftx::storage::WalReplayResult replay;
    const rdftx::Status st = rdftx::storage::ReplayWalFile(
        entry.path().string(),
        [deltas](const rdftx::storage::WalRecord& rec) {
          if (rec.type != rdftx::storage::WalRecordType::kTerm) ++*deltas;
          return rdftx::Status::OK();
        },
        &replay);
    if (!st.ok()) return false;
    *records += replay.records;
  }
  return !ec;
}

uint64_t DirBytes(const std::string& dir, const std::string& prefix) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.path().filename().string().starts_with(prefix)) {
      bytes += entry.file_size(ec);
    }
  }
  return bytes;
}

}  // namespace

struct LivePhase::State {
  State(const LiveInputs& in, Tally* tally)
      : in(in), tally(tally), sync(kWriters + 1) {}

  const LiveInputs in;
  Tally* const tally;
  LiveResult res;
  rdftx::LiveStoreOptions opts;
  // Everything above `threads` outlives the writers, which use it.
  std::unique_ptr<LiveStore> store;
  std::vector<TermId> values;
  std::vector<Key> keys;
  std::vector<KeyModel> model;
  std::vector<WriterState> ws;
  uint64_t interned = 0, acked = 0, since_ckpt = 0;
  int next_round = 0;
  Chronon base_last = 0;
  std::atomic<int> round{0};
  std::atomic<bool> stop{false};
  std::barrier<> sync;
  std::vector<std::thread> threads;

  void Writer(int w);
  void KeyRead(const std::shared_ptr<const rdftx::Epoch>& epoch, size_t ki,
               Chronon hi);
  uint64_t RunRound(bool reads);
  void Checkpoint(bool sample);
  bool Restart(bool timed);
  void StopWriters();
};

void LivePhase::State::Writer(int w) {
  WriterState& me = ws[static_cast<size_t>(w)];
  const size_t E = kEditsPerRound;
  for (;;) {
    sync.arrive_and_wait();  // round start
    if (stop.load()) return;
    const int r = round.load();
    const Chronon at = base_last + 1 + static_cast<Chronon>(r);
    const Clock::time_point span0 = Clock::now();
    for (size_t j = 0; j < E; ++j) {
      const size_t ki =
          me.keys[(static_cast<size_t>(r) * E + j) % me.keys.size()];
      Key& k = keys[ki];
      const size_t pick = static_cast<size_t>(r) * 7 + j * 3 +
                          static_cast<size_t>(w);
      TermId next = values[pick % values.size()];
      if (next == k.cur) next = values[(pick + 1) % values.size()];
      Clock::time_point t0 = Clock::now();
      rdftx::Status s1 = store->RetractId(Triple{k.s, k.p, k.cur}, at);
      me.lat_ms.push_back(MsSince(t0));
      if (!s1.ok()) {
        me.errors.push_back("retract: " + s1.ToString());
        continue;
      }
      me.log.push_back(Event{ki, false, k.cur, at});
      t0 = Clock::now();
      rdftx::Status s2 = store->AssertId(Triple{k.s, k.p, next}, at);
      me.lat_ms.push_back(MsSince(t0));
      if (!s2.ok()) {
        me.errors.push_back("assert: " + s2.ToString());
        k.cur = 0;  // nothing live for this key any more
        continue;
      }
      me.log.push_back(Event{ki, true, next, at});
      k.cur = next;
    }
    me.span_s = SecondsSince(span0);
    sync.arrive_and_wait();  // round end
  }
}

/// A selection on an edited key whose window ends at `hi`, before the
/// chronon of every write in flight: its answer is fixed by the model.
/// `epoch` was taken before the round's writers started, so every read
/// of a round does the same work whatever the writers' progress: the
/// first builds the epoch's overlay of the backlog, the rest reuse it.
void LivePhase::State::KeyRead(const std::shared_ptr<const rdftx::Epoch>& epoch,
                               size_t ki, Chronon hi) {
  const Key& k = keys[ki];
  const Chronon lo = hi > 400 ? hi - 400 : 0;
  const QuerySpec q = KeySelection(k.s, k.p, lo, hi, *in.dict);
  Expected want;
  const TemporalSet window(q.window);
  for (const auto& [o, runs] : model[ki]) {
    const TemporalSet v = TemporalSet::FromIntervals(runs).Intersect(window);
    if (!v.empty()) {
      want.rows.push_back(KeyCell(in.dict->Decode(o)) + TimeCell(v));
    }
  }
  for (const std::string& r : want.rows) want.set_hash += RowHash(r);

  rdftx::engine::QueryEngine engine(epoch.get(), in.dict);
  engine.set_join_order_provider(in.optimizer->AsProvider());
  if (in.trace) {
    // A fresh copy of the epoch builds its overlay on the first scan, as
    // a reader of a newly published epoch does.
    const rdftx::PatternSpec probe{k.s, k.p, rdftx::kInvalidTerm, q.window};
    auto fresh = std::make_shared<const rdftx::Epoch>(
        epoch->base(), epoch->head(), epoch->last_time());
    res.overlay_deltas.Add(static_cast<double>(fresh->delta_count()));
    for (Samples* s : {&res.first_scan_ms, &res.repeat_scan_ms}) {
      const Clock::time_point t0 = Clock::now();
      fresh->ScanPattern(probe, [](const Triple&, const Interval&) {});
      s->Add(MsSince(t0));
    }
  }
  ++tally->attempted;
  const Clock::time_point t0 = Clock::now();
  auto rs = engine.Execute(q.text);
  const double ms = MsSince(t0);
  if (!rs.ok()) {
    tally->Fail("live read: " + rs.status().ToString() + " in " + q.text);
    return;
  }
  res.key_read_ms.Add(ms);
  std::string why;
  if (!Matches(q, want, *rs, &why)) {
    tally->Wrong("live read: " + why + " in " + q.text);
  }
}

uint64_t LivePhase::State::RunRound(bool reads) {
  const int r = next_round++;
  round.store(r);
  const std::shared_ptr<const rdftx::Epoch> epoch = store->Snapshot();
  sync.arrive_and_wait();  // release the writers
  const Chronon at = base_last + 1 + static_cast<Chronon>(r);
  if (reads) {
    const size_t n = kKeyReadsPerRound;
    for (size_t i = 0; i < n; ++i) {
      KeyRead(epoch, (static_cast<size_t>(r) * n + i) % keys.size(), at - 1);
    }
  }
  sync.arrive_and_wait();  // writers done
  uint64_t acks = 0;
  double span_s = 0;
  for (WriterState& w : ws) {
    span_s = std::max(span_s, w.span_s);
    for (const Event& e : w.log) Apply(e, &model[e.key]);
    acks += w.log.size();
    tally->attempted += w.lat_ms.size();
    for (double ms : w.lat_ms) res.write_ms.Add(ms);
    for (const std::string& err : w.errors) tally->Fail("write: " + err);
    w.log.clear();
    w.lat_ms.clear();
    w.errors.clear();
  }
  if (reads) res.write_span_s.Add(span_s);
  acked += acks;
  since_ckpt += acks;
  return acks;
}

void LivePhase::State::Checkpoint(bool sample) {
  ++tally->attempted;
  const Clock::time_point t0 = Clock::now();
  const rdftx::Status st = store->Checkpoint();
  const double checkpoint_s = SecondsSince(t0);
  if (!st.ok()) tally->Fail("checkpoint: " + st.ToString());
  if (sample && st.ok()) res.checkpoint_s.Add(checkpoint_s);
  since_ckpt = 0;
}

/// Closes the store and recovers it from its directory. The writers are
/// parked at the round barrier, so none touches the store meanwhile. If
/// recovery fails there is no store: the writers are stopped, and later
/// rounds do nothing.
bool LivePhase::State::Restart(bool timed) {
  store.reset();
  // The closed store's log holds every delta since the last checkpoint,
  // as the event log counts them (plus the interned terms before the
  // first checkpoint).
  uint64_t records = 0, deltas = 0;
  if (!CountWalRecords(in.dir, &records, &deltas)) {
    tally->Wrong("cannot read the write-ahead log in " + in.dir);
  } else if (deltas != since_ckpt) {
    tally->Wrong("the write-ahead log holds " + std::to_string(deltas) +
                 " deltas, but the event log has " +
                 std::to_string(since_ckpt) + " since the last checkpoint");
  }
  if (timed) res.replayed_records.Add(static_cast<double>(records));
  ++tally->attempted;
  const Clock::time_point t0 = Clock::now();
  auto reopened = LiveStore::OpenOrRecover(in.dir, opts);
  const double recovery_s = SecondsSince(t0);
  if (!reopened.ok()) {
    tally->Fail("recover: " + reopened.status().ToString());
    StopWriters();
    return false;
  }
  if (timed) res.recovery_samples_s.Add(recovery_s);
  store = std::move(*reopened);
  if (store->last_durable_lsn() != acked + interned) {
    tally->Wrong("recovered lsn " + std::to_string(store->last_durable_lsn()) +
                 " != acked writes + interned terms " +
                 std::to_string(acked + interned));
  }
  return true;
}

void LivePhase::State::StopWriters() {
  if (threads.empty()) return;
  stop.store(true);
  sync.arrive_and_wait();
  for (std::thread& t : threads) t.join();
  threads.clear();
}

LivePhase::LivePhase(const LiveInputs& in, Tally* tally)
    : s_(std::make_unique<State>(in, tally)) {}

LivePhase::~LivePhase() {
  s_->StopWriters();
  s_->store.reset();
  std::error_code ec;
  fs::remove_all(s_->in.dir, ec);
}

const LiveResult& LivePhase::result() const { return s_->res; }

bool LivePhase::Open() {
  State& s = *s_;
  std::error_code ec;
  fs::remove_all(s.in.dir, ec);
  fs::create_directories(s.in.dir, ec);

  ++s.tally->attempted;
  const rdftx::Status st =
      s.in.base->SaveSnapshot(s.in.dir + "/snapshot.rtxsnap", s.in.dict);
  if (!st.ok()) {
    s.tally->Fail("base snapshot: " + st.ToString());
    return false;
  }
  ++s.tally->attempted;
  auto opened = LiveStore::OpenOrRecover(s.in.dir, s.opts);
  if (!opened.ok()) {
    s.tally->Fail("open: " + opened.status().ToString());
    return false;
  }
  s.store = std::move(*opened);
  for (int k = 0; k < kEditValues; ++k) {
    const std::string term = "edit_value_" + std::to_string(k);
    ++s.tally->attempted;
    auto id = s.store->InternTerm(term);
    if (!id.ok()) {
      s.tally->Fail("intern: " + id.status().ToString());
      return false;
    }
    ++s.interned;
    // The store exposes no Dictionary: mirror it by interning the same
    // terms in the same order, so query constants resolve to its ids.
    if (s.in.dict->Intern(term) != *id) {
      s.tally->Wrong("mirrored term id differs");
    }
    s.values.push_back(*id);
  }

  // Edit keys: distinct (subject, predicate) pairs of facts live at the
  // end of the history, in seeded order, split among the writers.
  const size_t W = kWriters;
  const size_t per_writer = std::max<size_t>(4 * kEditsPerRound, 64);
  {
    std::vector<const Fact*> live;
    for (const Fact& f : s.in.facts->all) {
      if (f.validity.End() == kChrononNow) live.push_back(&f);
    }
    rdftx::Rng rng(s.in.seed * 0x9E3779B97F4A7C15ull + 5);
    for (size_t i = live.size(); i > 1; --i) {
      std::swap(live[i - 1], live[rng.Uniform(i)]);
    }
    std::set<std::pair<TermId, TermId>> used;
    for (const Fact* f : live) {
      if (s.keys.size() == per_writer * W) break;
      if (used.insert({f->t.s, f->t.p}).second) {
        s.keys.push_back(Key{f->t.s, f->t.p, f->t.o});
      }
    }
  }
  s.model.resize(s.keys.size());
  {
    std::map<std::pair<TermId, TermId>, size_t> index;
    for (size_t i = 0; i < s.keys.size(); ++i) {
      index[{s.keys[i].s, s.keys[i].p}] = i;
    }
    for (const Fact& f : s.in.facts->all) {
      auto it = index.find({f.t.s, f.t.p});
      if (it != index.end()) s.model[it->second][f.t.o] = f.validity.runs();
    }
  }
  s.res.writes_per_round = 2 * W * kEditsPerRound;
  s.ws.resize(W);
  for (size_t i = 0; i < s.keys.size(); ++i) s.ws[i % W].keys.push_back(i);
  s.base_last = s.in.base->last_time();
  for (size_t w = 0; w < W; ++w) {
    s.threads.emplace_back([&s, w] { s.Writer(static_cast<int>(w)); });
  }
  return true;
}

void LivePhase::Round() {
  State& s = *s_;
  if (s.threads.empty()) return;
  s.RunRound(true);
  if (s.since_ckpt >= kCheckpointEvery) {
    // Restart first, so recovery replays exactly one checkpoint interval.
    if (s.Restart(/*timed=*/true)) s.Checkpoint(/*sample=*/true);
  }
}

void LivePhase::Finish() {
  State& s = *s_;
  if (s.threads.empty()) return;
  // Sampled only when it folds deltas: right after a checkpoint it has
  // nothing to do and would time another thing.
  s.Checkpoint(/*sample=*/s.since_ckpt > 0);
  s.res.snapshot_bytes =
      static_cast<double>(DirBytes(s.in.dir, "snapshot.rtxsnap"));
  uint64_t tail = 0;
  for (int t = 0; t < kTailRounds; ++t) tail += s.RunRound(false);
  s.res.wal_bytes_per_write =
      tail > 0 ? static_cast<double>(DirBytes(s.in.dir, "wal-")) /
                     static_cast<double>(tail)
               : 0;
  s.StopWriters();

  // Close, recover (replaying the tail), and check every touched triple.
  if (!s.Restart(/*timed=*/false)) return;
  std::shared_ptr<const rdftx::Epoch> epoch = s.store->Snapshot();
  for (size_t ki = 0; ki < s.keys.size(); ++ki) {
    for (const auto& [o, runs] : s.model[ki]) {
      const Triple t{s.keys[ki].s, s.keys[ki].p, o};
      if (epoch->Validity(t) != TemporalSet::FromIntervals(runs)) {
        s.tally->Wrong("recovered validity differs for a touched triple");
      }
    }
  }
}

}  // namespace e2e
