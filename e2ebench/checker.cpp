// e2e_checker — independent verifier of one pipeline run's outputs.
//
//   $ e2e_checker --db db.txt --itemsets itemsets.txt --min-count 250
//         [--rules rules.csv --confidence 0.8]
//
// Links nothing from the smpmine library and shares none of its kernels:
// it parses the ASCII database and the output files itself and recounts
// every support by two methods of its own — a triangular pair array for
// k = 2 and AND + popcount over per-item tid-bitmaps for every other k.
// It proves:
//   * exactness  — every reported itemset has exactly the reported support,
//                  which meets --min-count;
//   * completeness — F1 equals the items counted at or above --min-count,
//                  and every member of each level's negative border (a
//                  k-itemset whose (k-1)-subsets are all reported frequent,
//                  but which is not reported itself) has support below it;
//   * rules      — every rule's support count, support, confidence and
//                  lift recompute from the verified supports, no rule
//                  repeats, and the number of rules equals the number of
//                  (antecedent, consequent) splits of verified itemsets
//                  that meet --confidence.
// Prints one JSON line {"ok": ..., ...}; exits 0 iff ok.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace {

using Item = std::uint32_t;
using Itemset = std::vector<Item>;

struct ItemsetHash {
  std::size_t operator()(const Itemset& s) const noexcept {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const Item i : s) h = (h ^ i) * 0x100000001b3ULL;
    return static_cast<std::size_t>(h);
  }
};
using SupportMap = std::unordered_map<Itemset, std::uint64_t, ItemsetHash>;

std::vector<std::string> g_errors;
std::uint64_t g_error_count = 0;

void error(const std::string& message) {
  ++g_error_count;
  if (g_errors.size() < 8) g_errors.push_back(message);
}

std::string show(const Itemset& s) {
  std::string out = "{";
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (i) out += ' ';
    out += std::to_string(s[i]);
  }
  return out + "}";
}

/// Parses whitespace-separated unsigned integers; false on any other token.
bool parse_uints(const char* p, std::vector<std::uint64_t>& out) {
  out.clear();
  while (*p) {
    while (*p == ' ' || *p == '\t' || *p == '\r') ++p;
    if (!*p) break;
    if (*p < '0' || *p > '9') return false;
    char* end = nullptr;
    out.push_back(std::strtoull(p, &end, 10));
    p = end;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Database and the two independent counters.
// ---------------------------------------------------------------------------

struct Db {
  std::vector<Itemset> txns;
  std::vector<std::uint64_t> item_count;  ///< occurrences per item id
};

bool load_db(const std::string& path, Db& db) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  std::vector<std::uint64_t> v;
  while (std::getline(in, line)) {
    if (!parse_uints(line.c_str(), v)) {
      error("database: malformed line " + std::to_string(db.txns.size() + 1));
      return false;
    }
    Itemset t(v.begin(), v.end());
    std::sort(t.begin(), t.end());
    t.erase(std::unique(t.begin(), t.end()), t.end());
    for (const Item i : t) {
      if (i >= db.item_count.size()) db.item_count.resize(i + 1, 0);
      ++db.item_count[i];
    }
    db.txns.push_back(std::move(t));
  }
  return true;
}

/// Per-item tid-bitmaps over the frequent items and a triangular pair
/// table over their ranks.
class Counter {
 public:
  Counter(const Db& db, const std::vector<Item>& f1) {
    rank_.assign(db.item_count.size(), kNone);
    for (std::size_t r = 0; r < f1.size(); ++r) {
      rank_[f1[r]] = static_cast<std::uint32_t>(r);
    }
    n_ = f1.size();
    words_ = (db.txns.size() + 63) / 64;
    bits_.assign(n_ * words_, 0);
    pairs_.assign(n_ * (n_ > 0 ? n_ - 1 : 0) / 2, 0);
    std::vector<std::uint32_t> ranks;
    for (std::size_t t = 0; t < db.txns.size(); ++t) {
      ranks.clear();
      for (const Item i : db.txns[t]) {
        if (rank_[i] != kNone) ranks.push_back(rank_[i]);
      }
      std::sort(ranks.begin(), ranks.end());
      for (std::size_t a = 0; a < ranks.size(); ++a) {
        bits_[ranks[a] * words_ + t / 64] |= 1ULL << (t % 64);
        for (std::size_t b = a + 1; b < ranks.size(); ++b) {
          ++pairs_[pair_index(ranks[a], ranks[b])];
        }
      }
    }
  }

  /// Support of a sorted itemset whose items are all frequent.
  std::uint64_t support(const Itemset& s) {
    if (s.size() == 2) return pairs_[pair_index(rank(s[0]), rank(s[1]))];
    row_.assign(bits_.begin() + rank(s[0]) * words_,
                bits_.begin() + (rank(s[0]) + 1) * words_);
    for (std::size_t i = 1; i < s.size(); ++i) {
      const std::uint64_t* r = &bits_[rank(s[i]) * words_];
      for (std::size_t w = 0; w < words_; ++w) row_[w] &= r[w];
    }
    std::uint64_t n = 0;
    for (const std::uint64_t w : row_) n += std::popcount(w);
    return n;
  }

  std::uint64_t pairs_at_least(std::uint64_t min_count) const {
    std::uint64_t n = 0;
    for (const std::uint32_t c : pairs_) n += c >= min_count;
    return n;
  }

  bool is_frequent_item(Item i) const {
    return i < rank_.size() && rank_[i] != kNone;
  }

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;
  std::size_t rank(Item i) const { return rank_[i]; }
  std::size_t pair_index(std::size_t a, std::size_t b) const {
    // Row a of the strict upper triangle starts after a rows of shrinking
    // length n-1, n-2, ...
    return a * (2 * n_ - a - 1) / 2 + (b - a - 1);
  }

  std::vector<std::uint32_t> rank_;
  std::size_t n_ = 0;
  std::size_t words_ = 0;
  std::vector<std::uint64_t> bits_;
  std::vector<std::uint32_t> pairs_;
  std::vector<std::uint64_t> row_;
};

// ---------------------------------------------------------------------------
// Itemsets: exactness and completeness.
// ---------------------------------------------------------------------------

/// levels[k-1] holds the reported k-itemsets, sorted.
bool load_itemsets(const std::string& path,
                   std::vector<std::vector<Itemset>>& levels,
                   SupportMap& reported) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  std::vector<std::uint64_t> v;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (!parse_uints(line.c_str(), v) || v.size() < 2) {
      error("itemsets: malformed line " + std::to_string(lineno));
      continue;
    }
    Itemset s(v.begin(), v.end() - 1);
    if (std::adjacent_find(s.begin(), s.end(), std::greater_equal<>()) !=
        s.end()) {
      error("itemsets: items not strictly increasing on line " +
            std::to_string(lineno));
      continue;
    }
    if (!reported.emplace(s, v.back()).second) {
      error("itemsets: " + show(s) + " reported twice");
      continue;
    }
    if (levels.size() < s.size()) levels.resize(s.size());
    levels[s.size() - 1].push_back(std::move(s));
  }
  for (auto& level : levels) std::sort(level.begin(), level.end());
  return true;
}

/// Candidates of size k+1 from the sorted frequent k-itemsets: join on the
/// (k-1)-prefix, keep those whose every k-subset is frequent.
std::vector<Itemset> next_candidates(const std::vector<Itemset>& fk,
                                     const SupportMap& reported) {
  std::vector<Itemset> out;
  Itemset sub;
  for (std::size_t a = 0; a < fk.size(); ++a) {
    for (std::size_t b = a + 1; b < fk.size(); ++b) {
      if (!std::equal(fk[a].begin(), fk[a].end() - 1, fk[b].begin())) break;
      Itemset c(fk[a]);
      c.push_back(fk[b].back());
      bool closed = true;
      for (std::size_t drop = 0; drop + 2 < c.size() && closed; ++drop) {
        sub.assign(c.begin(), c.begin() + drop);
        sub.insert(sub.end(), c.begin() + drop + 1, c.end());
        closed = reported.count(sub) != 0;
      }
      if (closed) out.push_back(std::move(c));
    }
  }
  return out;
}

struct ItemsetVerdict {
  std::uint64_t itemsets = 0;
  std::uint64_t border = 0;
};

/// Exactness: every reported support recounts. Completeness, level by
/// level: given a complete level k-1, every frequent k-itemset is among the
/// candidates built from it, so the reported (verified, distinct) k-itemsets
/// are all of them iff as many candidates recount at or above min_count.
/// The candidates below it are the negative border.
ItemsetVerdict check_itemsets(const Db& db, std::uint64_t min_count,
                              const std::vector<std::vector<Itemset>>& levels,
                              const SupportMap& reported, Counter& counter) {
  ItemsetVerdict v;
  for (const auto& [s, count] : reported) {
    ++v.itemsets;
    const std::uint64_t actual =
        s.size() == 1 ? db.item_count[s[0]] : counter.support(s);
    if (actual != count || actual < min_count) {
      error("itemset " + show(s) + ": reported " + std::to_string(count) +
            ", actual " + std::to_string(actual));
    }
  }
  auto reported_at = [&](std::size_t k) -> std::uint64_t {
    return k <= levels.size() ? levels[k - 1].size() : 0;
  };
  auto expect = [&](std::size_t k, std::uint64_t frequent,
                    std::uint64_t candidates) {
    v.border += candidates - frequent;
    if (frequent != reported_at(k)) {
      error("level " + std::to_string(k) + ": " + std::to_string(frequent) +
            " frequent itemsets, " + std::to_string(reported_at(k)) +
            " reported");
    }
  };

  std::uint64_t f1 = 0, present = 0;
  for (const std::uint64_t c : db.item_count) {
    f1 += c >= min_count;
    present += c > 0;
  }
  expect(1, f1, present);
  if (f1 < 2) return v;
  expect(2, counter.pairs_at_least(min_count), f1 * (f1 - 1) / 2);
  for (std::size_t k = 3; k <= levels.size() + 1; ++k) {
    const std::vector<Itemset> cands =
        next_candidates(levels[k - 2], reported);
    std::uint64_t frequent = 0;
    for (const Itemset& c : cands) frequent += counter.support(c) >= min_count;
    expect(k, frequent, cands.size());
  }
  return v;
}

// ---------------------------------------------------------------------------
// Rules.
// ---------------------------------------------------------------------------

bool parse_items(const char* field, Itemset& out) {
  static std::vector<std::uint64_t> v;  // reused across the rule lines
  if (!parse_uints(field, v) || v.empty()) return false;
  out.assign(v.begin(), v.end());
  return std::adjacent_find(out.begin(), out.end(),
                            std::greater_equal<>()) == out.end();
}

/// 64-bit fingerprint of (antecedent, consequent) for the repeat check.
std::uint64_t rule_key(const Itemset& ante, const Itemset& cons) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const Item i : ante) h = (h ^ i) * 0x100000001b3ULL;
  h = (h ^ 0xffffffffULL) * 0x100000001b3ULL;  // separator, not an item
  for (const Item i : cons) h = (h ^ i) * 0x100000001b3ULL;
  // splitmix64 finalizer: spread FNV's weak high bits.
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

bool close_enough(double reported, double actual) {
  // The CSV prints six significant digits.
  return std::fabs(reported - actual) <= 1e-5 * std::max(1.0, std::fabs(actual));
}

std::uint64_t check_rules(const std::string& path, double min_confidence,
                          std::uint64_t num_txns, const SupportMap& reported) {
  std::ifstream in(path);
  if (!in) {
    error("rules: cannot open " + path);
    return 0;
  }
  const double d = static_cast<double>(num_txns);
  auto supp = [&](const Itemset& s) -> const std::uint64_t* {
    const auto it = reported.find(s);
    return it == reported.end() ? nullptr : &it->second;
  };

  std::string line;
  std::getline(in, line);
  if (line != "antecedent,consequent,support,confidence,lift,support_count") {
    error("rules: unexpected header");
  }
  std::unordered_set<std::uint64_t> seen;
  std::uint64_t rules = 0;
  std::size_t lineno = 1;
  Itemset ante, cons, whole;
  while (std::getline(in, line)) {
    ++lineno;
    ++rules;
    // Split in place: the six fields become NUL-terminated C strings.
    const char* f[6] = {};
    std::size_t n = 0;
    for (std::size_t pos = 0; n < 6; ++n) {
      f[n] = line.c_str() + pos;
      const std::size_t comma = line.find(',', pos);
      if (comma == std::string::npos) {
        ++n;
        break;
      }
      line[comma] = '\0';
      pos = comma + 1;
    }
    if (n != 6 || !parse_items(f[0], ante) || !parse_items(f[1], cons)) {
      error("rules: malformed line " + std::to_string(lineno));
      continue;
    }
    whole.clear();
    std::set_union(ante.begin(), ante.end(), cons.begin(), cons.end(),
                   std::back_inserter(whole));
    const std::uint64_t* sx = supp(whole);
    const std::uint64_t* sa = supp(ante);
    const std::uint64_t* sc = supp(cons);
    if (whole.size() != ante.size() + cons.size() || !sx || !sa || !sc) {
      error("rules: line " + std::to_string(lineno) +
            " is not a split of a frequent itemset");
      continue;
    }
    const double conf = static_cast<double>(*sx) / static_cast<double>(*sa);
    const double lift = conf * d / static_cast<double>(*sc);
    if (std::strtoull(f[5], nullptr, 10) != *sx ||
        !close_enough(std::strtod(f[2], nullptr),
                      static_cast<double>(*sx) / d) ||
        !close_enough(std::strtod(f[3], nullptr), conf) ||
        !close_enough(std::strtod(f[4], nullptr), lift) ||
        conf < min_confidence) {
      error("rules: line " + std::to_string(lineno) + " (" + show(ante) +
            " => " + show(cons) + ") does not recompute");
    }
    const std::uint64_t key = rule_key(ante, cons);
    if (!seen.insert(key).second) {
      error("rules: line " + std::to_string(lineno) + " repeats a rule");
    }
  }

  // Completeness: count every confident split of every verified itemset.
  std::uint64_t expected = 0;
  for (const auto& [x, sx] : reported) {
    const std::size_t k = x.size();
    if (k < 2 || k > 30) continue;
    for (std::uint32_t mask = 1; mask + 1 < (1u << k); ++mask) {
      ante.clear();
      for (std::size_t i = 0; i < k; ++i) {
        if (!(mask >> i & 1u)) ante.push_back(x[i]);
      }
      const std::uint64_t* sa = supp(ante);
      if (sa && static_cast<double>(sx) / static_cast<double>(*sa) >=
                    min_confidence) {
        ++expected;
      }
    }
  }
  if (expected != rules) {
    error("rules: " + std::to_string(rules) + " reported, " +
          std::to_string(expected) + " expected");
  }
  return rules;
}

const char* arg(int argc, char** argv, const char* name, const char* def) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return def;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string db_path = arg(argc, argv, "--db", "");
  const std::string itemsets_path = arg(argc, argv, "--itemsets", "");
  const std::string rules_path = arg(argc, argv, "--rules", "");
  const std::uint64_t min_count =
      std::strtoull(arg(argc, argv, "--min-count", "0"), nullptr, 10);
  const double min_confidence =
      std::strtod(arg(argc, argv, "--confidence", "0.8"), nullptr);
  if (db_path.empty() || itemsets_path.empty() || min_count == 0) {
    std::fputs("usage: e2e_checker --db F --itemsets F --min-count N "
               "[--rules F --confidence C]\n", stderr);
    return 2;
  }

  Db db;
  std::vector<std::vector<Itemset>> levels;
  SupportMap reported;
  ItemsetVerdict verdict;
  std::uint64_t rules = 0;
  if (!load_db(db_path, db)) {
    error("cannot read database " + db_path);
  } else if (!load_itemsets(itemsets_path, levels, reported)) {
    error("cannot read itemsets " + itemsets_path);
  } else {
    std::vector<Item> f1;
    for (Item i = 0; i < db.item_count.size(); ++i) {
      if (db.item_count[i] >= min_count) f1.push_back(i);
    }
    Counter counter(db, f1);
    // The counters hold frequent items only; an itemset with any other
    // item is wrong on its face.
    for (const auto& [s, count] : reported) {
      for (const Item i : s) {
        if (!counter.is_frequent_item(i)) {
          error("itemset " + show(s) + " holds infrequent item " +
                std::to_string(i));
        }
      }
    }
    if (g_error_count == 0) {
      verdict = check_itemsets(db, min_count, levels, reported, counter);
    }
    if (!rules_path.empty() && g_error_count == 0) {
      rules = check_rules(rules_path, min_confidence, db.txns.size(),
                          reported);
    }
  }

  std::printf("{\"ok\": %s, \"transactions\": %zu, \"itemsets\": %llu, "
              "\"border\": %llu, \"rules\": %llu, \"errors\": %llu, "
              "\"first_errors\": [",
              g_error_count == 0 ? "true" : "false", db.txns.size(),
              static_cast<unsigned long long>(verdict.itemsets),
              static_cast<unsigned long long>(verdict.border),
              static_cast<unsigned long long>(rules),
              static_cast<unsigned long long>(g_error_count));
  for (std::size_t i = 0; i < g_errors.size(); ++i) {
    std::string e;
    for (const char c : g_errors[i]) {
      if (c == '"' || c == '\\') e += '\\';
      e += c;
    }
    std::printf("%s\"%s\"", i ? ", " : "", e.c_str());
  }
  std::puts("]}");
  return g_error_count == 0 ? 0 : 1;
}
