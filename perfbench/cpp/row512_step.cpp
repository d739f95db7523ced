// row512_step: one data-parallel training step on a 512-GPU
// gpu::PartitionedRow — the row-scale composition the partitioned engine
// (sim::ParallelEngine) exists for.
//
// One op builds the row (its fabric included) and runs one step of the
// paper's shape: 50 us forward kernel, 100 us backward kernel, 2 us submit
// cost, 32 MiB ring allreduce. The deck holds the 8 row shapes
// {ring, fullmesh, eswitch, ocs} x {flat, 8 GPUs per chassis with NICs};
// the seed orders it. Oracle: the row digest of each shape is pinned.
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/names.hpp"
#include "core/units.hpp"
#include "gpusim/row.hpp"
#include "interconnect/fabric.hpp"
#include "spans.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

struct Shape {
  rsd::net::FabricKind kind;
  bool nics;
  std::uint64_t digest;  ///< Pinned: byte-identical at any sim-thread count.
};

constexpr int kGpus = 512;
constexpr int kGpusPerChassis = 8;

std::vector<Shape> pinned_shapes() {
  using K = rsd::net::FabricKind;
  return {
      {K::kRing, false, 11816296472817165093ull},
      {K::kFullMesh, false, 11816296472817165093ull},
      {K::kElectricalSwitch, false, 11061595265238442789ull},
      {K::kOpticalCircuit, false, 1945802346810016549ull},
      {K::kRing, true, 10992593681640632613ull},
      {K::kFullMesh, true, 10992593681640632613ull},
      {K::kElectricalSwitch, true, 13631132564948680997ull},
      {K::kOpticalCircuit, true, 3555129220793483813ull},
  };
}

std::string shape_label(const Shape& s) {
  return std::string{rsd::net::to_string(s.kind)} + (s.nics ? "/8-per-chassis" : "/flat");
}

class Row512Step final : public Workload {
 public:
  explicit Row512Step(const Options& options) : options_(options) {
    using namespace rsd::literals;
    training_.kernels = {rsd::gpu::RowKernel{rsd::NameRef{"row_fwd"}, 50_us},
                         rsd::gpu::RowKernel{rsd::NameRef{"row_bwd"}, 100_us}};
    training_.submit_cost = 2_us;
    training_.gradient_bytes = 32 * rsd::kMiB;
    training_.steps = 1;
  }

  void setup(Tally& tally) override {
    deck_ = pinned_shapes();
    if (options_.corrupt_digest) deck_.front().digest ^= 1;  // ring/flat now wrong
    std::mt19937_64 rng{options_.seed};
    seeded_shuffle(deck_, rng);
    // Warm-up: one step of a fixed shape, so lazy first-use costs (name
    // interning, allocator growth, worker start-up) land in set-up rather
    // than in the first timed op. Its digest is checked like any op's.
    const OpResult warm = step(pinned_shapes().front(), tally);
    if (!warm.ok) throw std::runtime_error{"row512_step warm-up: " + warm.detail};
  }

  [[nodiscard]] std::size_t deck_size() const override { return deck_.size(); }

  OpResult run_op(std::size_t slot, Tally& tally) override {
    return step(deck_[slot], tally);
  }

  [[nodiscard]] std::string op_label(std::size_t slot) const override {
    return shape_label(deck_[slot]);
  }

 private:
  OpResult step(const Shape& shape, Tally& tally) {
    rsd::gpu::RowParams params;
    params.gpus = kGpus;
    params.fabric_kind = shape.kind;
    params.sim_threads = options_.sim_threads;
    if (shape.nics) {
      params.gpus_per_chassis = kGpusPerChassis;
      params.chassis_nics = true;
    }
    std::unique_ptr<rsd::gpu::PartitionedRow> row;
    {
      Span span{"gpusim", "PartitionedRow"};
      row = std::make_unique<rsd::gpu::PartitionedRow>(params);
    }
    {
      // run_training spawns one coroutine per rank and hands the row to
      // sim::ParallelEngine::run; the call is booked to the sim layer.
      Span span{"sim", "ParallelEngine::run"};
      (void)row->run_training(training_);
    }
    const rsd::sim::ParallelEngine& eng = row->engine();
    tally["sim.events"] += static_cast<double>(eng.executed_events());
    tally["sim.epochs"] += static_cast<double>(eng.epochs());
    tally["sim.messages"] += static_cast<double>(eng.messages_delivered());
    tally["sim.stalled_partition_epochs"] += static_cast<double>(eng.stalled_partition_epochs());
    tally["sim.partition_epochs"] += static_cast<double>(eng.epochs()) * eng.size();
    tally["sim.horizon_gain_ns"] += static_cast<double>(eng.horizon_gain_ns());
    const std::uint64_t digest = row->digest();
    {
      Span span{"gpusim", "~PartitionedRow"};
      row.reset();
    }
    if (digest != shape.digest) {
      return {false, shape_label(shape) + ": row digest " + std::to_string(digest) +
                         " != pinned " + std::to_string(shape.digest)};
    }
    return {};
  }

  Options options_;
  rsd::gpu::RowTraining training_;
  std::vector<Shape> deck_;
};

}  // namespace

std::unique_ptr<Workload> make_row512_step(const Options& options) {
  return std::make_unique<Row512Step>(options);
}

}  // namespace perfbench
