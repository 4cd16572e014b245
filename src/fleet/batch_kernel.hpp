// Batched fleet kernel: event-driven transient integration over a node
// population (the perf successor to the per-node SocSystem reference loop).
//
// The reference path simulates each node with a fixed 2-10 us tick; a
// compressed day is ~50k ticks per node and the fleet engine tops out at
// O(100) nodes/s.  This kernel restructures the hot path two ways:
//
//   * Structure-of-arrays parameter plane: every node is drawn, configured
//     and reported through fleet/population.hpp — the functions
//     FleetSimulator uses, so both engines simulate the same population —
//     with its identity, policy, corner-resolved processor constants and
//     flattened sky built once in the constructor into contiguous arrays.
//     The shared model evaluations — the (pv_scale, irradiance) MPP surface
//     and the bypass-crossover table — are precomputed bilinear grids.
//     Nothing in the stepped loop calls an exact Brent/grid solver (the
//     common/solver_stats.hpp counters stay flat over a run; tested).
//
//   * Event-driven stepping: instead of a fixed tick, each node jumps to the
//     earliest of its next controller deadline, irradiance-trace breakpoint,
//     or predicted comparator/watch-level crossing, with an analytic RC bound
//     dt <= C * dist_to_nearest_watch / i_max guaranteeing no crossing can
//     occur strictly inside a step (see DESIGN.md).  Typical days integrate
//     in a few hundred steps instead of ~50k ticks.
//
// Equivalence: node identities (every NodeSample field) match the reference
// FleetSimulator's exactly; the simulated days reproduce its aggregates
// within tolerance (see tests/fleet/batch_kernel_test.cpp) but are not
// bit-identical to them — the determinism contract is internal: the batch
// summary_hash is bit-stable across serial/parallel runs and shard order.
#pragma once

#include <memory>
#include <vector>

#include "common/thread_pool.hpp"
#include "common/units.hpp"
#include "core/controller_inputs.hpp"
#include "fleet/report.hpp"
#include "fleet/scenario.hpp"

namespace hemp {

struct BatchKernelOptions {
  /// Pool to shard work onto; nullptr uses ThreadPool::shared().
  ThreadPool* pool = nullptr;
  /// false runs the same bodies in the serial loop (results are
  /// bit-identical either way).
  bool parallel = true;
  /// Inert: nothing reads it.  Nodes always step one at a time; the field
  /// stays only because the repository benchmark still assigns it.
  bool simd_lanes = true;
};

/// One solar-node comparator edge recorded by the traced single-node runner.
struct BatchComparatorEvent {
  int comparator = 0;  ///< index into the scenario's descending threshold bank
  bool rising = false;
  Seconds time{0.0};
};

/// Event-driven batch simulator for a whole FleetScenario.
///
/// Construction precomputes the shared surfaces (exact solves are allowed
/// and expected here); run() and run_node() never fall back to them.
///
/// Construction shards onto `opts`' pool by the same rule as run() (only
/// `pool` and `parallel` are read), in two parallel_for passes: the fixed
/// work (the MPP and IV surfaces per pv-scale slice, the crossover table per
/// (corner, temperature, pv_scale) knot), then the node plane (draw, policy,
/// flattened and coarsened sky, Processor, crossover lookup per node).  Every
/// body writes only its own index's slot and node i draws only from
/// node_rng(scenario, i), so the kernel — and every report it produces — is
/// bit-identical to the serial loop's, whatever the thread order.  The
/// passes nest parallel_for on one pool, so a kernel may also be built
/// inside a task of that pool.
class BatchFleetKernel {
 public:
  explicit BatchFleetKernel(FleetScenario scenario,
                            const BatchKernelOptions& opts = {});
  ~BatchFleetKernel();

  BatchFleetKernel(const BatchFleetKernel&) = delete;
  BatchFleetKernel& operator=(const BatchFleetKernel&) = delete;

  /// Simulate every node and aggregate: one run_node() per node, sharded
  /// over `opts`' pool node by node (the constructor's pool rule), then
  /// aggregate().  Deterministic: serial and parallel runs return
  /// bit-identical reports (same summary_hash).
  [[nodiscard]] FleetReport run(const BatchKernelOptions& opts = {}) const;

  /// Simulate a single node (pure function of the scenario and index).
  [[nodiscard]] NodeResult run_node(int index) const;

  /// Simulate a single node while recording every comparator-bank edge on
  /// the solar node (the reference SocSystem's observability), for the
  /// no-skipped-crossing equivalence tests.
  [[nodiscard]] NodeResult run_node_traced(
      int index, std::vector<BatchComparatorEvent>& events) const;

  [[nodiscard]] const FleetScenario& scenario() const;

  /// The model-derived inputs node `index`'s controller is built with, read
  /// off the shared surfaces and the crossover table (no exact solve).  The
  /// MPP lookup reads this kernel's surfaces: valid while the kernel lives.
  [[nodiscard]] ControllerInputs controller_inputs(int index) const;

  /// Opaque precomputed state (defined in batch_kernel.cpp; public only so
  /// the translation-unit-local node runner can name the type).
  struct Shared;

 private:
  std::shared_ptr<const Shared> shared_;
};

}  // namespace hemp
