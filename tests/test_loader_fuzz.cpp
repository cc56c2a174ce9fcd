// Loader robustness: seeded byte mutations of every corpus program, of one
// witness and of one checkpoint.  Every mutant must either load or be
// rejected with support::Error.  An InternalError (an engine invariant the
// loader let through), any other exception or a sanitizer report fails.
// Loading a program means parsing it; a witness, from_json plus replay; a
// checkpoint, from_json plus restore_states.  Nothing is explored.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "engine/checkpoint.hpp"
#include "engine/transition_system.hpp"
#include "explore/explorer.hpp"
#include "parser/parser.hpp"
#include "support/diagnostics.hpp"
#include "witness/witness.hpp"

namespace {

using namespace rc11;

constexpr int kMutantsPerInput = 300;

std::string prog(const std::string& name) {
  return std::string(RC11_SRC_DIR) + "/tools/programs/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in{path};
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// One to four random edits: overwrite a byte, delete a short run, insert a
/// byte, copy a run of up to 64 bytes elsewhere, or copy a whole line after
/// another one (which moves statements between threads and keys between
/// objects).
std::string mutate(std::string s, std::mt19937_64& rng) {
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  const auto edits = 1 + pick(4);
  for (std::size_t e = 0; e < edits && !s.empty(); ++e) {
    const auto at = pick(s.size());
    switch (pick(5)) {
      case 0:
        s[at] = static_cast<char>(rng());
        break;
      case 1:
        s.erase(at, 1 + pick(8));
        break;
      case 2:
        s.insert(at, 1, static_cast<char>(rng()));
        break;
      case 3:
        s.insert(pick(s.size() + 1), s.substr(at, 1 + pick(64)));
        break;
      default: {
        const auto begin = s.rfind('\n', at) + 1;  // npos + 1 == 0
        const auto end = s.find('\n', at);
        const auto line =
            s.substr(begin, end == std::string::npos ? end : end - begin + 1);
        const auto to = s.find('\n', pick(s.size()));
        s.insert(to == std::string::npos ? s.size() : to + 1, line);
      }
    }
  }
  return s;
}

/// Loads kMutantsPerInput seeded mutants of `input` and fails on anything
/// thrown that is not a support::Error.
template <typename Load>
void expect_load_or_reject(const std::string& what, const std::string& input,
                           std::uint64_t seed, Load load) {
  std::mt19937_64 rng(seed);
  for (int i = 0; i < kMutantsPerInput; ++i) {
    const auto mutant = mutate(input, rng);
    try {
      load(mutant);
    } catch (const support::Error&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << " mutant " << i << " threw '" << e.what()
                    << "' instead of support::Error:\n"
                    << mutant;
    } catch (...) {
      ADD_FAILURE() << what << " mutant " << i << " threw a non-exception:\n"
                    << mutant;
    }
  }
}

TEST(LoaderFuzz, ProgramMutantsParseOrReject) {
  std::vector<std::string> paths;
  for (const auto& entry : std::filesystem::directory_iterator(prog(""))) {
    if (entry.path().extension() == ".rc11") paths.push_back(entry.path().string());
  }
  std::sort(paths.begin(), paths.end());
  ASSERT_FALSE(paths.empty());
  std::uint64_t seed = 1;
  for (const auto& path : paths) {
    expect_load_or_reject(path, read_file(path), seed++,
                          [](const std::string& text) {
                            (void)parser::parse_program(text);
                          });
  }
}

TEST(LoaderFuzz, WitnessMutantsLoadOrReject) {
  const auto program = parser::parse_file(prog("sb.rc11"));
  explore::ExploreOptions opts;
  opts.track_traces = true;
  const auto result = explore::explore(
      program.sys, opts,
      [](const lang::System& s,
         const lang::Config& cfg) -> std::optional<std::string> {
        if (!cfg.all_done(s)) return std::nullopt;
        return "final state reached";
      });
  ASSERT_FALSE(result.violations.empty());
  ASSERT_TRUE(result.violations.front().witness.has_value());
  const auto text = witness::to_json(*result.violations.front().witness);
  expect_load_or_reject("witness", text, 101, [&](const std::string& doc) {
    (void)witness::replay(program.sys, witness::from_json(doc));
  });
}

TEST(LoaderFuzz, CheckpointMutantsLoadOrReject) {
  const auto program = parser::parse_file(prog("sb.rc11"));
  const auto path = ::testing::TempDir() + "loader_fuzz_ckpt.json";
  explore::ExploreOptions opts;
  opts.max_states = 8;
  opts.checkpoint_path = path;
  (void)explore::explore(program.sys, opts);
  const auto text = read_file(path);
  std::remove(path.c_str());
  ASSERT_FALSE(text.empty());
  const engine::TransitionSystem ts(program.sys);
  expect_load_or_reject("checkpoint", text, 201, [&](const std::string& doc) {
    (void)engine::restore_states(ts, engine::from_json(doc));
  });
}

}  // namespace
