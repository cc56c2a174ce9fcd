// The differential matrix over every input (see matrix.hpp): one test per
// input program, or per generated sweep, so ctest runs the inputs in
// parallel and names the one that fails.  Each test runs the input's plain
// reference once and every row of the table that covers its family; a
// sweep stops at its first failing program.

#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "catalogue.hpp"
#include "containers/container_objects.hpp"
#include "litmus/case_studies.hpp"
#include "locks/clients.hpp"
#include "locks/lock_objects.hpp"
#include "matrix.hpp"
#include "small_programs.hpp"

namespace {

using namespace rc11;
using matrix::Input;

/// One test instance: its name, and the programs it checks.
struct Instance {
  std::string name;
  std::function<std::vector<Input>()> inputs;
};

Input corpus_input(const std::string& file) {
  Input in{file, matrix::kCorpus,
           parser::parse_file(catalogue::program_path(file)).sys};
  for (auto& test : catalogue::litmus_tests()) {
    if (test.file == file) {
      in.observed = std::move(test.observed);
      in.allowed = std::move(test.allowed);
    }
  }
  for (const auto& test : catalogue::race_tests()) {
    if (test.file == file) in.racy = test.racy;
  }
  return in;
}

Instance one(std::string name, matrix::Family family,
             std::function<lang::System()> build) {
  return {name, [name, family, build] {
            std::vector<Input> inputs;
            inputs.push_back({name, family, build()});
            return inputs;
          }};
}

Instance sweep(std::string name,
               std::function<std::vector<testgen::Generated>()> generate) {
  return {std::move(name), [generate] {
            std::vector<Input> inputs;
            for (auto& g : generate()) {
              inputs.push_back(
                  {g.description, matrix::kSweep, std::move(g.sys)});
            }
            return inputs;
          }};
}

std::unique_ptr<locks::LockObject> make_lock(std::size_t i) {
  switch (i) {
    case 0: return std::make_unique<locks::AbstractLock>();
    case 1: return std::make_unique<locks::SeqLock>();
    case 2: return std::make_unique<locks::TicketLock>();
    case 3: return std::make_unique<locks::CasSpinLock>();
    default: return std::make_unique<locks::TTASLock>();
  }
}

Instance lock_client(const std::string& client_name,
                     std::function<locks::ClientProgram()> client,
                     std::size_t lock) {
  return one(catalogue::param_name(client_name + "_" + make_lock(lock)->name()),
             matrix::kLockClient, [client, lock] {
               return locks::instantiate(client(), *make_lock(lock));
             });
}

/// Corpus files added after the first numbering.  An instance's number is
/// part of its ctest name ("# GetParam() = N"), so each of these is appended
/// after every input that was there before it, in the order it was added,
/// instead of renumbering every test after the place where it sorts.
const std::set<std::string> kLaterCorpus = {
    "rf_export_view.rc11", "fai_elected_race.rc11", "lock_workers_named.rc11",
    "rf_write_live.rc11"};

Instance corpus(const std::string& file) {
  return {std::filesystem::path(file).stem().string(),
          [file] { return std::vector<Input>{corpus_input(file)}; }};
}

std::vector<Instance> build_instances() {
  std::vector<Instance> out;
  // Every crosscheck_corpus() file is an input; kLaterCorpus only decides
  // where it is numbered.
  for (const auto& file : catalogue::crosscheck_corpus()) {
    if (kLaterCorpus.count(file) == 0) out.push_back(corpus(file));
  }

  out.push_back(one("peterson", matrix::kCaseStudy,
                    [] { return litmus::peterson_counter().sys; }));
  out.push_back(one("dekker", matrix::kCaseStudy,
                    [] { return litmus::dekker_counter().sys; }));
  out.push_back(one("barrier", matrix::kCaseStudy,
                    [] { return litmus::barrier_exchange().sys; }));

  for (unsigned work = 1; work <= 4; ++work) {
    const auto w = std::to_string(work);
    out.push_back(one("mp_compute_w" + w, matrix::kCompute,
                      [work] { return testgen::mp_compute(work); }));
    out.push_back(one("mp_spin_compute_w" + w, matrix::kCompute,
                      [work] { return testgen::mp_spin_compute(work); }));
  }

  const std::vector<std::pair<std::string,
                              std::function<locks::ClientProgram()>>>
      clients = {
          {"fig7", [] { return locks::fig7_client(); }},
          {"mgc_2_2", [] { return locks::mgc_client(2, 2); }},
          {"counter_2_1", [] { return locks::counter_client(2, 1); }},
          {"worker_2_1_2", [] { return locks::worker_client(2, 1, 2); }},
          {"worker_3_1_2", [] { return locks::worker_client(3, 1, 2); }},
      };
  for (const auto& [name, client] : clients) {
    for (std::size_t lock = 0; lock < 5; ++lock) {
      out.push_back(lock_client(name, client, lock));
    }
  }
  out.push_back(lock_client(
      "worker_2_1_3", [] { return locks::worker_client(2, 1, 3); },
      /*ticket lock*/ 2));

  out.push_back(sweep("core_vocabulary_sweep", testgen::core_exhaustive_programs));
  out.push_back(sweep("rmw_diagonal_sweep", testgen::rmw_diagonal_programs));
  out.push_back(
      sweep("three_slot_mirrored_sweep", testgen::three_slot_mirrored_programs));

  // Newer inputs, in the order they were added, so that no other test is
  // renumbered (see kLaterCorpus).
  out.push_back(corpus("rf_export_view.rc11"));
  out.push_back(lock_client(
      "mgc_2_1", [] { return locks::mgc_client(2, 1); }, /*ticket lock*/ 2));
  out.push_back(one(
      catalogue::param_name("producer_consumer_2_" +
                            containers::LockedVectorStack{2}.name()),
      matrix::kLockClient, [] {
        containers::LockedVectorStack stack{2};
        return containers::instantiate(containers::producer_consumer_client(2),
                                       stack);
      }));
  out.push_back(corpus("fai_elected_race.rc11"));
  out.push_back(corpus("lock_workers_named.rc11"));
  out.push_back(corpus("rf_write_live.rc11"));
  return out;
}

const std::vector<Instance>& instances() {
  static const auto list = build_instances();
  return list;
}

class Matrix : public ::testing::TestWithParam<int> {};

TEST_P(Matrix, AgreesWithPlain) {
  const auto rows = matrix::rows();
  for (const auto& input :
       instances().at(static_cast<std::size_t>(GetParam())).inputs()) {
    matrix::Reference reference(input);
    for (const auto& row : rows) {
      if ((row.families & input.family) != 0) {
        matrix::check(row, input, reference);
      }
    }
    if (HasFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Inputs, Matrix, ::testing::Range(0, static_cast<int>(instances().size())),
    [](const ::testing::TestParamInfo<int>& p) {
      return catalogue::param_name(
          instances().at(static_cast<std::size_t>(p.param)).name);
    });

}  // namespace
