// Command-line driver exposing the train-once / tune-many deployment flow
// with persisted models:
//
//   $ ./cdbtune_cli train  --workload rw --instance a --model /tmp/std_model
//   $ ./cdbtune_cli tune   --workload tpcc --instance c --model /tmp/std_model
//   $ ./cdbtune_cli inspect --instance a
//
// `train` builds the standard model offline and writes it to disk; `tune`
// loads it and serves one 5-step online tuning request (printing the SET
// GLOBAL commands); `inspect` lists the knob catalog and instance shape.
#include <cstdio>
#include <cstring>
#include <string>

#include "env/simulated_cdb.h"
#include "tuner/cdbtune.h"

namespace {

using namespace cdbtune;

workload::WorkloadSpec ParseWorkload(const std::string& name) {
  if (name == "ro") return workload::SysbenchReadOnly();
  if (name == "wo") return workload::SysbenchWriteOnly();
  if (name == "rw") return workload::SysbenchReadWrite();
  if (name == "tpcc") return workload::Tpcc();
  if (name == "tpch") return workload::Tpch();
  if (name == "ycsb") return workload::Ycsb();
  std::fprintf(stderr, "unknown workload '%s' (ro|wo|rw|tpcc|tpch|ycsb)\n",
               name.c_str());
  std::exit(2);
}

env::HardwareSpec ParseInstance(const std::string& name) {
  if (name == "a") return env::CdbA();
  if (name == "b") return env::CdbB();
  if (name == "c") return env::CdbC();
  if (name == "d") return env::CdbD();
  if (name == "e") return env::CdbE();
  std::fprintf(stderr, "unknown instance '%s' (a|b|c|d|e)\n", name.c_str());
  std::exit(2);
}

struct Args {
  std::string command;
  std::string workload = "rw";
  std::string instance = "a";
  std::string model = "/tmp/cdbtune_model";
  int steps = 600;
};

Args Parse(int argc, char** argv) {
  Args args;
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: cdbtune_cli <train|tune|inspect> [--workload W] "
                 "[--instance I] [--model PATH] [--steps N]\n");
    std::exit(2);
  }
  args.command = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--instance") {
      args.instance = value;
    } else if (flag == "--model") {
      args.model = value;
    } else if (flag == "--steps") {
      args.steps = std::atoi(value.c_str());
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      std::exit(2);
    }
  }
  return args;
}

int Inspect(const Args& args) {
  auto db = env::SimulatedCdb::MysqlCdb(ParseInstance(args.instance));
  const auto& reg = db->registry();
  std::printf("instance %s: %.0f GB RAM, %.0f GB %s disk, %d cores\n",
              db->hardware().name.c_str(), db->hardware().ram_gb,
              db->hardware().disk_gb, env::DiskTypeName(db->hardware().disk_type),
              db->hardware().cpu_cores);
  std::printf("catalog: %zu knobs (%zu tunable)\n", reg.size(),
              reg.TunableIndices().size());
  std::printf("%-36s %-8s %16s %16s %16s\n", "name", "type", "min", "default",
              "max");
  for (size_t i = 0; i < reg.size() && i < 30; ++i) {
    const auto& def = reg.def(i);
    const char* type = def.type == knobs::KnobType::kInteger   ? "int"
                       : def.type == knobs::KnobType::kDouble  ? "double"
                       : def.type == knobs::KnobType::kBoolean ? "bool"
                                                               : "enum";
    std::printf("%-36s %-8s %16.0f %16.0f %16.0f\n", def.name.c_str(), type,
                def.min_value, def.default_value, def.max_value);
  }
  std::printf("... (%zu more)\n", reg.size() - 30);
  return 0;
}

int Train(const Args& args) {
  auto db = env::SimulatedCdb::MysqlCdb(ParseInstance(args.instance));
  auto spec = ParseWorkload(args.workload);
  auto space = knobs::KnobSpace::AllTunable(&db->registry());
  tuner::CdbTuneOptions options;
  options.max_offline_steps = args.steps;
  tuner::CdbTuner tuner(db.get(), space, options);
  std::printf("training on %s / %s for %d steps ...\n", spec.name.c_str(),
              db->hardware().name.c_str(), args.steps);
  auto result = tuner.OfflineTrain(spec);
  std::printf("done: best %.0f txn/s (defaults %.0f), %d crashes punished\n",
              result.best.throughput, result.initial.throughput,
              result.crashes);
  util::Status saved = tuner.SaveModel(args.model);
  if (!saved.ok()) {
    std::fprintf(stderr, "saving model failed: %s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf("standard model written to %s\n", args.model.c_str());
  return 0;
}

int Tune(const Args& args) {
  auto db = env::SimulatedCdb::MysqlCdb(ParseInstance(args.instance));
  auto spec = ParseWorkload(args.workload);
  auto space = knobs::KnobSpace::AllTunable(&db->registry());
  tuner::CdbTuner tuner(db.get(), space, {});
  util::Status loaded = tuner.LoadModel(args.model);
  if (!loaded.ok()) {
    std::fprintf(stderr, "loading model failed: %s (run 'train' first)\n",
                 loaded.ToString().c_str());
    return 1;
  }
  std::printf("tuning %s on %s with model %s ...\n", spec.name.c_str(),
              db->hardware().name.c_str(), args.model.c_str());
  auto result = tuner.OnlineTune(spec);
  std::printf("%.0f -> %.0f txn/s (%.2fx), p99 %.0f -> %.0f ms in %d steps\n",
              result.initial.throughput, result.best.throughput,
              result.best.throughput / result.initial.throughput,
              result.initial.latency, result.best.latency, result.steps);
  tuner::Recommender recommender(&tuner.space());
  auto commands = recommender.RenderCommands(result.best_config,
                                             db->registry().DefaultConfig());
  std::printf("recommendation (%zu knobs changed); first 15:\n",
              commands.size());
  for (size_t i = 0; i < commands.size() && i < 15; ++i) {
    std::printf("  %s\n", commands[i].c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args = Parse(argc, argv);
  if (args.command == "train") return Train(args);
  if (args.command == "tune") return Tune(args);
  if (args.command == "inspect") return Inspect(args);
  std::fprintf(stderr, "unknown command '%s'\n", args.command.c_str());
  return 2;
}
