// The Fig 9 query mixes: temporal selections (9a), two-pattern temporal
// joins (9b), 3-7 pattern complex star queries (9c), and analytic wide
// scans / COUNT ... GROUP BY / ORDER BY ... LIMIT. Every query is
// sampled from the facts with a seeded generator and carries the
// structural description the brute-force checker evaluates.
#include <algorithm>
#include <map>
#include <set>

#include "bench.h"
#include "util/rng.h"

namespace e2e {
namespace {

using rdftx::FormatChronon;
using rdftx::Rng;

/// Generated terms are identifier-safe; quote anything else.
std::string Quote(const std::string& term) {
  for (char c : term) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_')) {
      return "\"" + term + "\"";
    }
  }
  return term;
}

constexpr size_t kSelections = 1600;
constexpr size_t kJoinPairs = 32;          // each yields three join queries
constexpr size_t kComplexSubjects = 16;    // each yields sizes 3..7
constexpr size_t kAnalyticPredicates = 10; // three queries each

struct Builder {
  const rdftx::Dictionary& dict;

  std::string T(TermId id) const { return Quote(dict.Decode(id)); }

  /// A chronon inside the first run of `v`, at or before `horizon`.
  Chronon Probe(const TemporalSet& v, Chronon horizon, Rng* rng) const {
    const Interval r = v.runs().front();
    const Chronon last = std::min<Chronon>(r.end - 1, horizon);
    const Chronon lo = r.start;
    const Chronon hi = std::max(lo, last);
    return lo + static_cast<Chronon>(rng->Uniform(hi - lo + 1));
  }

  /// FILTER text and window for `?t >= lo && ?t <= hi`.
  std::string Range(Chronon lo, Chronon hi, QuerySpec* q) const {
    q->window = Interval(lo, hi + 1);
    return "FILTER(?t >= " + FormatChronon(lo) + " && ?t <= " +
           FormatChronon(hi) + ")";
  }
};

Pat TimePat(TermId s, TermId p, TermId o, int vs, int vp, int vo) {
  Pat pat;
  pat.s = s;
  pat.p = p;
  pat.o = o;
  pat.vs = vs;
  pat.vp = vp;
  pat.vo = vo;
  return pat;
}

void AddSelections(const Facts& facts, const Builder& b, size_t n, Rng* rng,
                   std::vector<QuerySpec>* out) {
  for (size_t i = 0; i < n; ++i) {
    const Fact& f = facts.all[rng->Uniform(facts.all.size())];
    const Chronon probe = b.Probe(f.validity, facts.horizon, rng);
    const Chronon hi = std::min<Chronon>(
        probe + 30 + static_cast<Chronon>(rng->Uniform(300)), facts.horizon);
    QuerySpec q;
    q.cls = kSelect;
    const std::string S = b.T(f.t.s), P = b.T(f.t.p), O = b.T(f.t.o);
    switch (i % 4) {
      case 0:  // when was a fact valid (Example 1)
        q.pats = {TimePat(f.t.s, f.t.p, f.t.o, -1, -1, -1)};
        q.proj = {kTimeVar};
        q.text = "SELECT ?t { " + S + " " + P + " " + O + " ?t }";
        break;
      case 1:  // values of a property in a period (Example 2)
        q.var_names = {"o"};
        q.pats = {TimePat(f.t.s, f.t.p, 0, -1, -1, 0)};
        q.proj = {0, kTimeVar};
        q.text = "SELECT ?o ?t { " + S + " " + P + " ?o ?t . " +
                 b.Range(probe, hi, &q) + " }";
        break;
      case 2: {  // snapshot of a subject at a time point
        q.var_names = {"p", "o"};
        Pat pat = TimePat(f.t.s, 0, 0, -1, 0, 1);
        pat.time_var = false;
        pat.at = probe;
        q.pats = {pat};
        q.proj = {0, 1};
        q.text = "SELECT ?p ?o { " + S + " ?p ?o " + FormatChronon(probe) +
                 " }";
        break;
      }
      default:  // entities with a property value in a period
        q.var_names = {"s"};
        q.pats = {TimePat(0, f.t.p, f.t.o, 0, -1, -1)};
        q.proj = {0};
        q.text = "SELECT ?s { ?s " + P + " " + O + " ?t . " +
                 b.Range(probe, hi, &q) + " }";
    }
    out->push_back(std::move(q));
  }
}

/// Facts of each subject, in fact order.
std::map<TermId, std::vector<const Fact*>> BySubject(const Facts& facts) {
  std::map<TermId, std::vector<const Fact*>> out;
  for (const Fact& f : facts.all) out[f.t.s].push_back(&f);
  return out;
}

using PredPair = std::pair<TermId, TermId>;

/// Two-pattern joins (Fig 9b). The predicate pairs are stratified, not
/// sampled: the `pairs` ordered pairs that co-occur, with overlapping
/// validity, on the most subjects, each with two queries anchored by an
/// object (Example 4) and one with both objects free inside a window.
/// Only the constants come from the seed, so the mix has the same make-up
/// on every seed. (Two shapes in equal numbers would put the median
/// latency at the seam between them.)
void AddJoins(const Facts& facts,
              const std::map<TermId, std::vector<const Fact*>>& by_s,
              const Builder& b, size_t pairs, Rng* rng,
              std::vector<QuerySpec>* out) {
  std::map<PredPair, uint64_t> counts;
  auto each_pair = [&](auto&& fn) {
    for (const auto& [s, list] : by_s) {
      std::set<PredPair> seen;
      for (const Fact* a : list) {
        for (const Fact* c : list) {
          if (a->t.p == c->t.p) continue;
          const TemporalSet both = a->validity.Intersect(c->validity);
          if (both.empty()) continue;
          fn(a, c, &seen);
        }
      }
    }
  };
  each_pair([&](const Fact* a, const Fact* c, std::set<PredPair>* seen) {
    if (seen->insert({a->t.p, c->t.p}).second) ++counts[{a->t.p, c->t.p}];
  });
  std::vector<std::pair<uint64_t, PredPair>> ranked;
  for (const auto& [pp, n] : counts) ranked.emplace_back(n, pp);
  std::sort(ranked.begin(), ranked.end(), [](const auto& x, const auto& y) {
    return x.first != y.first ? x.first > y.first : x.second < y.second;
  });
  ranked.resize(std::min(ranked.size(), pairs));
  // Seeded reservoir samples of co-occurring fact pairs per chosen
  // predicate pair, one per query.
  constexpr size_t kPerPair = 3;
  std::map<PredPair, std::vector<std::pair<const Fact*, const Fact*>>> picks;
  std::map<PredPair, uint64_t> seen_n;
  for (const auto& r : ranked) picks[r.second];
  each_pair([&](const Fact* a, const Fact* c, std::set<PredPair>*) {
    auto it = picks.find({a->t.p, c->t.p});
    if (it == picks.end()) return;
    const uint64_t n = ++seen_n[it->first];
    if (it->second.size() < kPerPair) {
      it->second.emplace_back(a, c);
    } else if (rng->Uniform(n) < kPerPair) {
      it->second[rng->Uniform(kPerPair)] = {a, c};
    }
  });
  for (const auto& r : ranked) {
    const auto& chosen = picks[r.second];
    for (size_t k = 0; k < chosen.size(); ++k) {
      const Fact* a = chosen[k].first;
      const Fact* c = chosen[k].second;
      QuerySpec q;
      q.cls = kJoin;
      const std::string P1 = b.T(a->t.p), P2 = b.T(c->t.p);
      if (k != 1) {  // Example 4: one side anchored by its object
        q.var_names = {"s", "o"};
        q.pats = {TimePat(0, a->t.p, 0, 0, -1, 1),
                  TimePat(0, c->t.p, c->t.o, 0, -1, -1)};
        q.proj = {0, 1, kTimeVar};
        q.text = "SELECT ?s ?o ?t { ?s " + P1 + " ?o ?t . ?s " + P2 + " " +
                 b.T(c->t.o) + " ?t }";
      } else {  // both objects free, joined inside a window
        const TemporalSet overlap = a->validity.Intersect(c->validity);
        const Chronon lo = b.Probe(overlap, facts.horizon, rng);
        const Chronon hi = std::min<Chronon>(
            lo + 30 + static_cast<Chronon>(rng->Uniform(300)), facts.horizon);
        q.var_names = {"s", "o1", "o2"};
        q.pats = {TimePat(0, a->t.p, 0, 0, -1, 1),
                  TimePat(0, c->t.p, 0, 0, -1, 2)};
        q.proj = {0, 1, 2, kTimeVar};
        q.text = "SELECT ?s ?o1 ?o2 ?t { ?s " + P1 + " ?o1 ?t . ?s " + P2 +
                 " ?o2 ?t . " + b.Range(lo, hi, &q) + " }";
      }
      out->push_back(std::move(q));
    }
  }
}

/// Complex queries (Fig 9c protocol): per subject, one base set of
/// distinct predicates (most frequent first), extended one pattern at a
/// time from 3 to 7, so each query extends the previous one. Patterns 0,
/// 3 and 6 are anchored by their objects, the rest have free objects.
/// Subjects are stratified by their frequent predicates (those on
/// at least 1% of the facts), taken round-robin over these groups in
/// order of group size, so the mix of subject kinds is the same on every
/// seed.
void AddComplex(const Facts& facts,
                const std::map<TermId, std::vector<const Fact*>>& by_s,
                const Builder& b, size_t subjects_wanted, Rng* rng,
                std::vector<QuerySpec>* out) {
  constexpr int kMin = 3, kMax = 7;
  std::set<TermId> frequent;
  for (const auto& [p, idx] : facts.by_predicate) {
    if (idx.size() * 100 >= facts.all.size()) frequent.insert(p);
  }
  std::map<std::vector<TermId>, std::vector<TermId>> groups;
  for (const auto& [s, list] : by_s) {
    std::set<TermId> preds;
    for (const Fact* f : list) preds.insert(f->t.p);
    if (preds.size() < static_cast<size_t>(kMax)) continue;
    std::vector<TermId> sig;
    for (TermId p : preds) {
      if (frequent.contains(p)) sig.push_back(p);
    }
    groups[sig].push_back(s);
  }
  std::vector<const std::vector<TermId>*> order;
  for (const auto& [sig, members] : groups) order.push_back(&members);
  std::stable_sort(order.begin(), order.end(), [](const auto* x, const auto* y) {
    return x->size() > y->size();
  });
  std::vector<TermId> subjects;
  for (size_t round = 0; subjects.size() < subjects_wanted && !order.empty();
       ++round) {
    for (const auto* members : order) {
      if (subjects.size() == subjects_wanted) break;
      subjects.push_back((*members)[rng->Uniform(members->size())]);
    }
  }
  for (TermId subject : subjects) {
    const auto& list = by_s.at(subject);
    std::vector<const Fact*> anchors;
    std::set<TermId> seen;
    for (const Fact* f : list) {
      if (seen.insert(f->t.p).second) anchors.push_back(f);
    }
    // Most frequent predicates first, so each size has the same make-up.
    std::stable_sort(anchors.begin(), anchors.end(),
                     [&facts](const Fact* x, const Fact* y) {
                       return facts.by_predicate.at(x->t.p).size() >
                              facts.by_predicate.at(y->t.p).size();
                     });
    for (int size = kMin; size <= kMax; ++size) {
      QuerySpec q;
      q.cls = kComplex;
      q.var_names = {"s"};
      std::string body;
      for (int i = 0; i < size; ++i) {
        const Fact* f = anchors[static_cast<size_t>(i)];
        if (i % 3 == 0) {
          q.pats.push_back(TimePat(0, f->t.p, f->t.o, 0, -1, -1));
          body += "?s " + b.T(f->t.p) + " " + b.T(f->t.o) + " ?t . ";
        } else {
          const int v = static_cast<int>(q.var_names.size());
          q.var_names.push_back("o" + std::to_string(i));
          q.pats.push_back(TimePat(0, f->t.p, 0, 0, -1, v));
          body += "?s " + b.T(f->t.p) + " ?o" + std::to_string(i) + " ?t . ";
        }
      }
      body.resize(body.size() - 3);  // drop the trailing " . "
      q.proj = {0, kTimeVar};
      q.text = "SELECT ?s ?t { " + body + " }";
      out->push_back(std::move(q));
    }
  }
}

/// Analytic queries over the `count` most frequent predicates:
/// a wide scan, a COUNT ... GROUP BY, and an ORDER BY ... LIMIT.
void AddAnalytic(const Facts& facts, const Builder& b, size_t count,
                 std::vector<QuerySpec>* out) {
  std::vector<std::pair<size_t, TermId>> preds;
  for (const auto& [p, idx] : facts.by_predicate) {
    preds.emplace_back(idx.size(), p);
  }
  std::sort(preds.begin(), preds.end(), [](const auto& x, const auto& y) {
    return x.first != y.first ? x.first > y.first : x.second < y.second;
  });
  for (size_t rank = 0; rank < std::min(count, preds.size()); ++rank) {
    const TermId p = preds[rank].second;
    const std::string P = b.T(p);
    QuerySpec base;
    base.cls = kAnalytic;
    base.var_names = {"s", "o"};
    base.pats = {TimePat(0, p, 0, 0, -1, 1)};

    QuerySpec scan = base;
    scan.proj = {0, 1, kTimeVar};
    scan.text = "SELECT ?s ?o ?t { ?s " + P + " ?o ?t }";
    out->push_back(std::move(scan));

    QuerySpec count = base;
    count.shape = QuerySpec::kCountBy;
    count.group_var = 0;
    count.count_var = 1;
    count.text =
        "SELECT ?s (COUNT(?o) AS ?n) { ?s " + P + " ?o ?t } GROUP BY ?s";
    out->push_back(std::move(count));

    QuerySpec top = base;
    top.shape = QuerySpec::kTopK;
    top.proj = {0, 1, kTimeVar};
    top.order_col = 1;
    top.descending = true;
    top.limit = 20;
    top.text =
        "SELECT ?s ?o ?t { ?s " + P + " ?o ?t } ORDER BY DESC(?o) LIMIT 20";
    out->push_back(std::move(top));
  }
}

}  // namespace

std::vector<QuerySpec> MakeMix(const Facts& facts,
                               const rdftx::Dictionary& dict,
                               uint64_t seed) {
  Rng rng(seed * 0x2545F4914F6CDD1Dull + 17);
  const Builder b{dict};
  std::vector<QuerySpec> out;
  AddSelections(facts, b, kSelections, &rng, &out);
  const auto by_s = BySubject(facts);
  AddJoins(facts, by_s, b, kJoinPairs, &rng, &out);
  AddComplex(facts, by_s, b, kComplexSubjects, &rng, &out);
  AddAnalytic(facts, b, kAnalyticPredicates, &out);
  return out;
}

QuerySpec KeySelection(TermId s, TermId p, Chronon lo, Chronon hi,
                       const rdftx::Dictionary& dict) {
  const Builder b{dict};
  QuerySpec q;
  q.cls = kSelect;
  q.var_names = {"o"};
  q.pats = {TimePat(s, p, 0, -1, -1, 0)};
  q.proj = {0, kTimeVar};
  q.text = "SELECT ?o ?t { " + b.T(s) + " " + b.T(p) + " ?o ?t . " +
           b.Range(lo, hi, &q) + " }";
  return q;
}

}  // namespace e2e
