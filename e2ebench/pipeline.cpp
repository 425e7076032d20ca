// e2e_pipeline — the timed half of the end-to-end benchmark (run.py).
//
//   # untimed: write a Quest database as an ASCII transaction file
//   $ e2e_pipeline --mode generate --out db.txt --seed 7 --transactions 100000
//         --avg-len 10 --pattern-len 4 --patterns 2000 --items 1000
//
//   # timed set-up alone: load_ascii of the file in a fresh process
//   $ e2e_pipeline --mode load --input db.txt
//
//   # timed: the pipeline `smpmine --input db.txt ...` runs, one call per
//   # layer boundary, printed as one JSON line
//   $ e2e_pipeline --mode run --input db.txt --support 0.0025 --threads 4
//         --rules --out-dir work/ [--trace]
//
// The run mode builds MinerOptions exactly as the CLI does with only
// --support / --threads (/ --no-rules) given, times each public call
// (load_ascii, mine, generate_rules_parallel, save_frequent_itemsets,
// save_rules_csv) from outside, and copies out the per-iteration and
// ledger numbers mine() returns in MiningResult. --trace additionally
// turns on the library's span tracer and emits one span per public call
// (name, layer, start, end, parent); nothing is instrumented inside src/.
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "core/miner.hpp"
#include "core/results_io.hpp"
#include "core/rules.hpp"
#include "data/db_io.hpp"
#include "data/quest_gen.hpp"
#include "obs/json_writer.hpp"
#include "obs/trace.hpp"
#include "util/cli.hpp"
#include "util/cpu_features.hpp"
#include "util/rng.hpp"

using namespace smpmine;
namespace ledger = smpmine::obs::ledger;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// The MinerOptions `smpmine --input F --support S --threads P` builds:
/// every other flag at the CLI's own default (tools/smpmine_cli.cpp,
/// parse_options). run.py's option-drift guard compares the summary
/// printed below with the CLI's --metrics manifest on the same file.
MinerOptions cli_default_options(double support, std::uint32_t threads) {
  MinerOptions opts;
  opts.min_support = support;
  opts.min_confidence = 0.8;
  opts.threads = threads;
  opts.leaf_threshold = 8;
  opts.algorithm = Algorithm::CCPD;
  opts.placement = PlacementPolicy::LcaGpp;
  opts.hash_scheme = HashScheme::Indirection;
  opts.balance = PartitionScheme::Bitonic;
  opts.subset_check = SubsetCheck::FrameLocal;
  opts.count_kernel = CountKernel::Flat;
  opts.db_partition = DbPartition::Block;
  opts.validate();
  return opts;
}

/// One span per public call, kept in memory and printed with the result.
struct Span {
  const char* name;
  const char* layer;
  Clock::time_point start;
  Clock::time_point end;
  int parent;  ///< index into the span list, -1 for the root
};

class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}

  /// Times `fn` as a span named `name` under `parent`; returns its index.
  template <typename Fn>
  int record(const char* name, const char* layer, int parent, Fn&& fn) {
    const auto start = Clock::now();
    fn();
    spans_.push_back({name, layer, start, Clock::now(), parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  int open(const char* name, const char* layer) {
    spans_.push_back({name, layer, Clock::now(), Clock::now(), -1});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int index) { spans_[index].end = Clock::now(); }

  double seconds(int index) const {
    return seconds_between(spans_[index].start, spans_[index].end);
  }

  void write(obs::JsonWriter& w) const {
    w.begin_array();
    for (const Span& s : spans_) {
      w.begin_object();
      w.kv("name", s.name);
      w.kv("layer", s.layer);
      w.kv("start_s", seconds_between(epoch_, s.start));
      w.kv("end_s", seconds_between(epoch_, s.end));
      w.kv("parent", static_cast<std::int64_t>(s.parent));
      w.end_object();
    }
    w.end_array();
  }

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

std::uint64_t file_bytes(const std::string& path) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(n);
}

/// Fisher-Yates with the library's seeded xoshiro, so a seed names the
/// same order on every platform.
template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.uniform(i)]);
  }
}

/// The Quest generator seed every workload's database is drawn with (the
/// CLI's default). It is fixed on purpose: see generate().
constexpr std::uint64_t kQuestSeed = 1996;

/// The workload's database: the Quest database of the given shape at the
/// fixed generator seed kQuestSeed, with its item labels permuted and
/// its transactions shuffled by `seed`. A different Quest seed draws a
/// different pattern table and so a different mining problem (on
/// T10.I4.D100K at 0.25% the rule count ranges from 58 K to 1.3 M over
/// eight seeds); relabelling keeps the problem's shape (itemset and rule
/// counts) while every seed still hands the miner different bytes:
/// different hash-tree paths, a different database partition.
int generate(const CliParser& cli) {
  for (const char* flag : {"out", "seed", "transactions", "avg-len",
                           "pattern-len", "patterns", "items"}) {
    if (!cli.has(flag)) {
      std::fprintf(stderr, "error: --mode generate needs --%s\n", flag);
      return 1;
    }
  }
  QuestParams p;
  p.num_transactions =
      static_cast<std::uint32_t>(cli.get_int("transactions", 0));
  p.avg_transaction_len = cli.get_double("avg-len", 0.0);
  p.avg_pattern_len = cli.get_double("pattern-len", 0.0);
  p.num_patterns = static_cast<std::uint32_t>(cli.get_int("patterns", 0));
  p.num_items = static_cast<std::uint32_t>(cli.get_int("items", 0));
  p.seed = kQuestSeed;
  const std::string out = cli.get("out", "");
  const Database quest = generate_quest(p);

  Rng rng(static_cast<std::uint64_t>(cli.get_int("seed", 0)));
  std::vector<item_t> label(p.num_items);
  for (std::uint32_t i = 0; i < p.num_items; ++i) label[i] = i;
  shuffle(label, rng);
  std::vector<std::size_t> order(quest.size());
  for (std::size_t t = 0; t < order.size(); ++t) order[t] = t;
  shuffle(order, rng);

  Database db;
  std::vector<item_t> txn;
  for (const std::size_t t : order) {
    txn.clear();
    for (const item_t item : quest.transaction(t)) txn.push_back(label[item]);
    db.add_transaction(txn);
  }
  save_ascii(db, out);
  std::printf("{\"transactions\": %zu, \"bytes\": %llu}\n", db.size(),
              static_cast<unsigned long long>(file_bytes(out)));
  return 0;
}

void write_iteration(obs::JsonWriter& w, const IterationStats& it) {
  w.begin_object();
  w.kv("k", it.k);
  w.kv("candidates", it.candidates);
  w.kv("frequent", it.frequent);
  w.kv("kernel", it.count_kernel_used);
  w.kv("candgen_s", it.candgen_seconds);
  w.kv("remap_s", it.remap_seconds);
  w.kv("freeze_s", it.freeze_seconds);
  w.kv("vertbuild_s", it.vertbuild_seconds);
  w.kv("count_s", it.count_seconds);
  w.kv("reduce_s", it.reduce_seconds);
  w.kv("select_s", it.select_seconds);
  w.kv("total_s", it.total_seconds());
  w.kv("fanout", it.fanout);
  w.kv("tree_bytes", it.tree_bytes);
  w.kv("internal_visits", it.internal_visits);
  w.kv("leaf_visits", it.leaf_visits);
  w.kv("containment_checks", it.containment_checks);
  w.kv("hits", it.hits);
  w.end_object();
}

void write_ledger_totals(obs::JsonWriter& w, const MiningResult& r) {
  std::uint64_t lock_ns = 0, barrier_ns = 0;
  for (std::size_t p = 0; p < ledger::kNumPhases; ++p) {
    const ledger::PhaseAgg a =
        r.run_ledger.agg(static_cast<ledger::PhaseId>(p));
    lock_ns += a.lock_wait_ns;
    barrier_ns += a.barrier_wait_ns;
  }
  const ledger::EfficiencyDecomposition& e = r.run_efficiency;
  w.key("ledger").begin_object();
  w.kv("lock_wait_s", static_cast<double>(lock_ns) * 1e-9);
  w.kv("barrier_wait_s", static_cast<double>(barrier_ns) * 1e-9);
  w.kv("work_fraction", e.work_fraction);
  w.kv("serial_loss", e.serial_loss);
  w.kv("imbalance_loss", e.imbalance_loss);
  w.kv("contention_loss", e.contention_loss);
  w.kv("overhead_loss", e.overhead_loss);
  w.end_object();
}

/// Set-up alone: load_ascii of the file, timed, in this fresh process.
int load(const CliParser& cli) {
  const std::string input = cli.get("input", "");
  if (input.empty()) {
    std::fputs("error: --mode load needs --input\n", stderr);
    return 1;
  }
  const auto start = Clock::now();
  const Database db = load_ascii(input);
  const double load_s = seconds_between(start, Clock::now());
  std::printf("{\"transactions\": %zu, \"load_s\": %.9f}\n", db.size(),
              load_s);
  return 0;
}

int run(const CliParser& cli) {
  for (const char* flag : {"input", "out-dir", "support", "threads"}) {
    if (!cli.has(flag)) {
      std::fprintf(stderr, "error: --mode run needs --%s\n", flag);
      return 1;
    }
  }
  const std::string input = cli.get("input", "");
  const std::string out_dir = cli.get("out-dir", "");
  const bool with_rules = cli.get_bool("rules", false);
  const bool traced = cli.get_bool("trace", false);
  const MinerOptions opts = cli_default_options(
      cli.get_double("support", 0.0),
      static_cast<std::uint32_t>(cli.get_int("threads", 0)));
  const std::string itemsets_path = out_dir + "/itemsets.txt";
  const std::string rules_path = out_dir + "/rules.csv";

  obs::set_current_thread_name("main");
  if (traced) obs::Tracer::instance().set_enabled(true);

  SpanLog spans(Clock::now());
  Database db;
  MiningResult result;
  std::vector<Rule> rules;
  const int root = spans.open("pipeline", "bench");
  const int load = spans.record("load_ascii", "data", root,
                                [&] { db = load_ascii(input); });
  const int mined =
      spans.record("mine", "core", root, [&] { result = mine(db, opts); });
  int rules_span = -1, write_rules = -1;
  if (with_rules) {
    rules_span = spans.record("generate_rules_parallel", "core", root, [&] {
      rules = generate_rules_parallel(result, opts.min_confidence, db.size(),
                                      opts.threads);
    });
  }
  const int write_itemsets = spans.record(
      "save_frequent_itemsets", "core", root,
      [&] { save_frequent_itemsets(result.levels, itemsets_path); });
  if (with_rules) {
    write_rules = spans.record("save_rules_csv", "core", root,
                               [&] { save_rules_csv(rules, rules_path); });
  }
  spans.close(root);

  const double write_s =
      spans.seconds(write_itemsets) +
      (write_rules >= 0 ? spans.seconds(write_rules) : 0.0);
  std::uint64_t trace_events = 0;
  if (traced) {
    obs::Tracer::instance().for_each_event(
        [&](std::uint32_t, std::string_view, const obs::TraceEvent&) { ++trace_events; });
  }

  obs::JsonWriter w(std::cout);
  w.begin_object();
  w.key("options").begin_object();
  w.kv("summary", opts.summary());
  w.kv("algorithm", to_string(opts.algorithm));
  w.kv("threads", opts.threads);
  w.kv("min_support", opts.min_support);
  w.kv("min_confidence", opts.min_confidence);
  w.end_object();
  w.key("host").begin_object();
  w.kv("build_type", E2E_BUILD_TYPE);
  w.kv("simd_backend", to_string(simd_backend()));
  w.end_object();
  w.kv("transactions", static_cast<std::uint64_t>(db.size()));
  w.kv("input_bytes", file_bytes(input));
  w.kv("output_bytes",
       file_bytes(itemsets_path) + (with_rules ? file_bytes(rules_path) : 0));
  w.kv("pipeline_s", spans.seconds(root));
  w.kv("load_s", spans.seconds(load));
  w.kv("mine_s", spans.seconds(mined));
  w.kv("rules_s", rules_span >= 0 ? spans.seconds(rules_span) : 0.0);
  w.kv("write_s", write_s);
  w.kv("f1_s", result.f1_seconds);
  w.kv("frequent", result.total_frequent());
  w.kv("rules", static_cast<std::uint64_t>(rules.size()));
  w.kv("trace_events", trace_events);
  w.key("iterations").begin_array();
  for (const IterationStats& it : result.iterations) write_iteration(w, it);
  w.end_array();
  write_ledger_totals(w, result);
  w.key("spans");
  spans.write(w);
  w.end_object();
  std::cout << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli;
  cli.add_flag("mode", "generate | load | run");
  cli.add_flag("out", "generate: ASCII transaction file to write");
  cli.add_flag("seed", "generate: item-relabelling / shuffle seed");
  cli.add_flag("transactions", "generate: D");
  cli.add_flag("avg-len", "generate: T");
  cli.add_flag("pattern-len", "generate: I");
  cli.add_flag("patterns", "generate: L");
  cli.add_flag("items", "generate: N");
  cli.add_flag("input", "load, run: ASCII transaction file");
  cli.add_flag("support", "run: minimum support (fraction of |D|)");
  cli.add_flag("threads", "run: worker threads");
  cli.add_flag("rules", "run: generate and write rules");
  cli.add_flag("out-dir", "run: directory for itemsets.txt / rules.csv");
  cli.add_flag("trace", "run: enable the span tracer and report spans");
  if (!cli.parse(argc, argv)) return 1;
  try {
    const std::string mode = cli.get("mode", "");
    if (mode == "generate") return generate(cli);
    if (mode == "load") return load(cli);
    if (mode == "run") return run(cli);
    std::fputs("error: --mode generate|load|run is required\n", stderr);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
  }
  return 1;
}
