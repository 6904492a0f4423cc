#include "common/figures.hpp"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace bgl::bench {

std::vector<FigureDef> all_figures() {
  std::vector<FigureDef> figures;
  figures.push_back(make_fig3());
  figures.push_back(make_fig4());
  figures.push_back(make_fig5());
  figures.push_back(make_fig6());
  figures.push_back(make_fig7());
  figures.push_back(make_fig8());
  figures.push_back(make_fig9());
  figures.push_back(make_fig10());
  figures.push_back(make_load_sweep());
  figures.push_back(make_ablation_pf_rule());
  figures.push_back(make_ablation_topology());
  figures.push_back(make_ablation_queue_order());
  figures.push_back(make_ablation_history_predictor());
  figures.push_back(make_ablation_backfill_migration());
  figures.push_back(make_ablation_checkpoint());
  figures.push_back(make_baselines());
  figures.push_back(make_predict());
  figures.push_back(make_scale());
  return figures;
}

std::string bench_out_dir_from_env() {
  const char* env = std::getenv("BGL_BENCH_OUT");
  return env ? env : "bench_out";
}

namespace {

/// Read-modify-write the consolidated BENCH_summary.json. Figures may run
/// from separate processes, so the file is kept line-keyed — one
/// `"<figure>": {...}` entry per line between the braces — and merged
/// textually: no JSON parser needed, entries written by other figures are
/// preserved, and re-running a figure overwrites only its own line.
void update_bench_summary(const std::string& dir, const std::string& name,
                          const exp::SweepResult& result, std::ostream& out) {
  const std::string path = dir + "/BENCH_summary.json";

  std::map<std::string, std::string> entries;
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      const auto start = line.find_first_not_of(" \t");
      if (start == std::string::npos || line[start] != '"') continue;
      const auto key_end = line.find('"', start + 1);
      if (key_end == std::string::npos) continue;
      auto end = line.find_last_not_of(" \t");
      if (line[end] == ',') --end;  // stored without the joining comma
      entries[line.substr(start + 1, key_end - start - 1)] =
          line.substr(start, end - start + 1);
    }
  }

  std::ostringstream entry;
  entry << '"' << name << "\": {\"counters\":";
  result.counters().write_json(entry);
  entry << ",\"histograms\":";
  result.histograms().write_json(entry);
  entry << '}';
  entries[name] = entry.str();

  std::ofstream file(path, std::ios::trunc);
  if (!file) {
    out << "[summary] skipped (" << path << " not writable)\n";
    return;
  }
  file << "{\n";
  bool first = true;
  for (const auto& [key, value] : entries) {
    (void)key;
    if (!first) file << ",\n";
    first = false;
    file << value;
  }
  file << "\n}\n";
  out << "[summary] " << path << "\n";
}

void write_outputs(const FigureDef& figure, const FigureOutput& output,
                   const exp::SweepResult& result, const std::string& dir,
                   std::ostream& out) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);

  for (const FigurePart& part : output.parts) {
    const std::string path = dir + "/" + part.csv_name + ".csv";
    try {
      part.table.write_csv(path);
      out << "[csv] " << path << "\n";
    } catch (const std::exception& e) {
      out << "[csv] skipped (" << e.what() << ")\n";
    }
  }

  for (const FigureArtifact& artifact : output.artifacts) {
    const std::string path = dir + "/" + artifact.file_name;
    std::ofstream file(path, std::ios::trunc);
    if (file) {
      file << artifact.content;
      out << "[artifact] " << path << "\n";
    } else {
      out << "[artifact] skipped (" << path << " not writable)\n";
    }
  }

  const std::string stats_path = dir + "/" + figure.name + ".stats.json";
  std::ofstream stats(stats_path, std::ios::trunc);
  if (stats) {
    stats << "{\"observability\":";
    result.counters().write_json(stats);
    stats << ",\"histograms\":";
    result.histograms().write_json(stats);
    stats << ",\"phases\":";
    result.profiler().write_json(stats);
    stats << "}\n";
    out << "[stats] " << stats_path << "\n";
  } else {
    out << "[stats] skipped (" << stats_path << " not writable)\n";
  }

  update_bench_summary(dir, figure.name, result, out);
}

}  // namespace

void run_figure(const FigureDef& figure, const FigureRunOptions& options,
                std::ostream& out) {
  out << figure.header << "\n";

  exp::RunOptions run_options;
  run_options.threads = options.threads;
  if (options.progress) {
    run_options.progress = [&out](std::size_t, std::size_t) {
      out << "." << std::flush;
    };
  }
  const exp::SweepResult result =
      exp::SweepRunner().run(figure.spec, run_options);

  const FigureOutput output = figure.render(result);
  for (const FigurePart& part : output.parts) {
    out << "\n\n";
    if (!part.heading.empty()) out << part.heading << "\n";
    out << part.table.render();
  }
  if (!output.notes.empty()) out << output.notes;
  out << "\n";

  write_outputs(figure, output, result, options.out_dir, out);
}

int figure_binary_main(const std::string& name) {
  try {
    FigureRunOptions options;
    options.out_dir = bench_out_dir_from_env();
    if (const char* env = std::getenv("BGL_BENCH_THREADS")) {
      options.threads = require_int("BGL_BENCH_THREADS", env, 1,
                                    std::numeric_limits<int>::max());
    }
    for (const FigureDef& figure : all_figures()) {
      if (figure.name == name) {
        run_figure(figure, options, std::cout);
        return 0;
      }
    }
    std::cerr << "unknown figure: " << name << '\n';
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}

}  // namespace bgl::bench
