// Brute-force evaluation of the benchmark's queries over the generated
// triples, and comparison of engine results against it. Nothing here
// calls into the query engine: patterns are matched against the fact
// table directly and joined with a plain hash join.
#include <algorithm>
#include <cstdlib>
#include <unordered_set>

#include "bench.h"

namespace e2e {
namespace {

/// One partial solution: key bindings by variable index, plus ?t.
struct BRow {
  std::vector<TermId> keys;
  TemporalSet t;
  bool has_t = false;
};

uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::vector<BRow> ScanPat(const QuerySpec& q, const Pat& p,
                          const Facts& facts) {
  const size_t nvars = q.var_names.size();
  const Interval window =
      p.time_var ? q.window : Interval(p.at, p.at + 1);
  const TemporalSet window_set(window);
  std::vector<BRow> out;
  auto visit = [&](const Fact& f) {
    if ((p.s != 0 && f.t.s != p.s) || (p.p != 0 && f.t.p != p.p) ||
        (p.o != 0 && f.t.o != p.o)) {
      return;
    }
    TemporalSet clipped = f.validity.Intersect(window_set);
    if (clipped.empty()) return;
    BRow row;
    row.keys.assign(nvars, rdftx::kInvalidTerm);
    if (p.vs >= 0) row.keys[static_cast<size_t>(p.vs)] = f.t.s;
    if (p.vp >= 0) row.keys[static_cast<size_t>(p.vp)] = f.t.p;
    if (p.vo >= 0) row.keys[static_cast<size_t>(p.vo)] = f.t.o;
    if (p.time_var) {
      row.t = std::move(clipped);
      row.has_t = true;
    }
    out.push_back(std::move(row));
  };
  if (p.p != 0 || p.s != 0) {
    const auto& index = p.p != 0 ? facts.by_predicate : facts.by_subject;
    auto it = index.find(p.p != 0 ? p.p : p.s);
    if (it == index.end()) return out;
    for (uint32_t i : it->second) visit(facts.all[i]);
  } else {
    for (const Fact& f : facts.all) visit(f);
  }
  return out;
}

std::vector<int> PatVars(const Pat& p) {
  std::vector<int> v;
  for (int x : {p.vs, p.vp, p.vo}) {
    if (x >= 0) v.push_back(x);
  }
  return v;
}

/// Joins `right` (the rows of pattern `p`) into `acc` on the key
/// variables both sides bind; ?t intersects, an empty intersection
/// drops the row.
std::vector<BRow> Join(const std::vector<BRow>& acc,
                       const std::vector<bool>& bound, const Pat& p,
                       const std::vector<BRow>& right) {
  std::vector<int> shared;
  for (int v : PatVars(p)) {
    if (bound[static_cast<size_t>(v)]) shared.push_back(v);
  }
  auto key_of = [&shared](const BRow& r) {
    uint64_t h = 0;
    for (int v : shared) h = Mix64(h ^ r.keys[static_cast<size_t>(v)]);
    return h;
  };
  std::unordered_multimap<uint64_t, const BRow*> index;
  index.reserve(right.size());
  for (const BRow& r : right) index.emplace(key_of(r), &r);
  std::vector<BRow> out;
  for (const BRow& l : acc) {
    auto [lo, hi] = index.equal_range(key_of(l));
    for (auto it = lo; it != hi; ++it) {
      const BRow& r = *it->second;
      bool equal = true;
      for (int v : shared) {
        if (l.keys[static_cast<size_t>(v)] != r.keys[static_cast<size_t>(v)]) {
          equal = false;
          break;
        }
      }
      if (!equal) continue;
      BRow m = l;
      for (int v : PatVars(p)) {
        m.keys[static_cast<size_t>(v)] = r.keys[static_cast<size_t>(v)];
      }
      if (l.has_t && r.has_t) {
        m.t = l.t.Intersect(r.t);
        if (m.t.empty()) continue;
      } else if (r.has_t) {
        m.t = r.t;
        m.has_t = true;
      }
      out.push_back(std::move(m));
    }
  }
  return out;
}

/// Joined solutions of the scanned patterns, in spec order. Like the
/// engine's serial pipeline, joining stops at the first step that leaves
/// the result empty.
std::vector<BRow> Solve(const QuerySpec& q,
                        const std::vector<std::vector<BRow>>& scanned) {
  std::vector<BRow> acc;
  std::vector<bool> bound(q.var_names.size(), false);
  for (size_t i = 0; i < q.pats.size(); ++i) {
    acc = i == 0 ? scanned[0] : Join(acc, bound, q.pats[i], scanned[i]);
    for (int v : PatVars(q.pats[i])) bound[static_cast<size_t>(v)] = true;
    if (acc.empty()) break;
  }
  return acc;
}

std::string Cell(const BRow& r, int v, const rdftx::Dictionary& dict) {
  if (v == kTimeVar) return TimeCell(r.t);
  return KeyCell(dict.Decode(r.keys[static_cast<size_t>(v)]));
}

/// The `col`-th cell of a canonical row, without its type tag.
std::string CellAt(const std::string& row, int col) {
  size_t pos = 0;
  for (int i = 0; i < col; ++i) pos = row.find('\x1F', pos) + 1;
  const size_t end = row.find('\x1F', pos);
  return row.substr(pos + 1, end - pos - 1);
}

}  // namespace

const char* ClassName(int cls) {
  static const char* kNames[kNumClasses] = {"select", "join", "complex",
                                            "analytic"};
  return kNames[cls];
}

std::string KeyCell(const std::string& term) { return "S" + term + "\x1F"; }

std::string TimeCell(const TemporalSet& t) {
  std::string out = "T";
  for (const Interval& run : t.runs()) {
    out += std::to_string(run.start) + "," + std::to_string(run.end) + ";";
  }
  out.push_back('\x1F');
  return out;
}

Facts BuildFacts(const std::vector<rdftx::TemporalTriple>& triples,
                 Chronon horizon) {
  std::unordered_map<Triple, std::vector<Interval>, rdftx::TripleHash> groups;
  for (const rdftx::TemporalTriple& tt : triples) {
    groups[tt.triple].push_back(tt.iv);
  }
  Facts facts;
  facts.horizon = horizon;
  facts.all.reserve(groups.size());
  for (auto& [t, ivs] : groups) {
    TemporalSet v = TemporalSet::FromIntervals(std::move(ivs));
    if (!v.empty()) facts.all.push_back(Fact{t, std::move(v)});
  }
  std::sort(facts.all.begin(), facts.all.end(),
            [](const Fact& a, const Fact& b) { return a.t < b.t; });
  for (uint32_t i = 0; i < facts.all.size(); ++i) {
    facts.by_predicate[facts.all[i].t.p].push_back(i);
    facts.by_subject[facts.all[i].t.s].push_back(i);
  }
  return facts;
}

uint64_t RowHash(const std::string& row) {
  uint64_t h = 0xCBF29CE484222325ull;
  for (unsigned char c : row) h = (h ^ c) * 0x100000001B3ull;
  return Mix64(h);
}

int CompareTerms(const std::string& a, const std::string& b) {
  auto numeric = [](const std::string& s, double* out) {
    if (s.empty()) return false;
    char* end = nullptr;
    *out = std::strtod(s.c_str(), &end);
    return end == s.c_str() + s.size();
  };
  double va = 0, vb = 0;
  const bool na = numeric(a, &va);
  const bool nb = numeric(b, &vb);
  if (na && nb) return va < vb ? -1 : (va > vb ? 1 : 0);
  if (na != nb) return na ? -1 : 1;
  return a.compare(b);
}

Expected Evaluate(const QuerySpec& q, const Facts& facts,
                  const rdftx::Dictionary& dict) {
  Expected e;
  std::vector<std::vector<BRow>> scanned;
  for (const Pat& p : q.pats) {
    scanned.push_back(ScanPat(q, p, facts));
    e.pattern_rows.push_back(scanned.back().size());
  }
  const std::vector<BRow> sols = Solve(q, scanned);
  e.empty = sols.empty();
  std::unordered_set<std::string> seen;
  if (q.shape == QuerySpec::kCountBy) {
    // Set semantics: count over distinct full bindings.
    std::map<TermId, uint64_t> counts;
    for (const BRow& r : sols) {
      std::string full;
      for (TermId k : r.keys) full += std::to_string(k) + ",";
      full += TimeCell(r.t);
      if (!seen.insert(full).second) continue;
      uint64_t& n = counts[r.keys[static_cast<size_t>(q.group_var)]];
      if (r.keys[static_cast<size_t>(q.count_var)] != rdftx::kInvalidTerm) ++n;
    }
    for (const auto& [g, n] : counts) {
      e.rows.push_back(KeyCell(dict.Decode(g)) + KeyCell(std::to_string(n)));
    }
  } else {
    for (const BRow& r : sols) {
      std::string row;
      for (int v : q.proj) row += Cell(r, v, dict);
      if (seen.insert(row).second) e.rows.push_back(std::move(row));
    }
  }
  if (q.shape == QuerySpec::kTopK) {
    const int col = q.order_col;
    const bool desc = q.descending;
    std::sort(e.rows.begin(), e.rows.end(),
              [col, desc](const std::string& a, const std::string& b) {
                const int c = CompareTerms(CellAt(a, col), CellAt(b, col));
                if (c != 0) return desc ? c > 0 : c < 0;
                return a < b;
              });
  } else {
    std::sort(e.rows.begin(), e.rows.end());
    for (const std::string& r : e.rows) e.set_hash += RowHash(r);
  }
  return e;
}

bool RowsScannedMatches(const Expected& e, const std::vector<int>& order,
                        uint64_t rows_scanned) {
  uint64_t sum = 0;
  for (size_t step = 0; step < order.size(); ++step) {
    sum += e.pattern_rows[static_cast<size_t>(order[step])];
    // A non-empty answer means no step emptied the result: all scanned.
    if (rows_scanned == sum && (e.empty || step + 1 == order.size())) {
      return true;
    }
  }
  return false;
}

std::vector<std::string> CanonicalRows(const rdftx::engine::ResultSet& rs) {
  std::vector<std::string> out;
  out.reserve(rs.rows.size());
  for (const auto& row : rs.rows) {
    std::string s;
    for (const rdftx::engine::Cell& c : row) {
      s += c.is_time ? TimeCell(c.time) : KeyCell(c.term);
    }
    out.push_back(std::move(s));
  }
  return out;
}

bool Matches(const QuerySpec& q, const Expected& e,
             const rdftx::engine::ResultSet& rs, std::string* why) {
  std::vector<std::string> got = CanonicalRows(rs);
  if (q.shape != QuerySpec::kTopK) {
    uint64_t h = 0;
    for (const std::string& r : got) h += RowHash(r);
    if (got.size() != e.rows.size() || h != e.set_hash) {
      *why = "got " + std::to_string(got.size()) + " rows, expected " +
             std::to_string(e.rows.size()) + " (or different rows)";
      return false;
    }
    return true;
  }
  // ORDER BY ... LIMIT: the rows must be answers, and their sort keys
  // must be the `limit` smallest keys in order (ties may resolve
  // either way).
  const size_t want = std::min(q.limit, e.rows.size());
  if (got.size() != want) {
    *why = "top-k returned " + std::to_string(got.size()) + " rows, expected " +
           std::to_string(want);
    return false;
  }
  std::unordered_set<std::string> all(e.rows.begin(), e.rows.end());
  for (size_t i = 0; i < got.size(); ++i) {
    if (!all.contains(got[i])) {
      *why = "top-k row " + std::to_string(i) + " is not an answer";
      return false;
    }
    if (CompareTerms(CellAt(got[i], q.order_col),
                     CellAt(e.rows[i], q.order_col)) != 0) {
      *why = "top-k key at position " + std::to_string(i) + " out of order";
      return false;
    }
  }
  return true;
}

}  // namespace e2e
