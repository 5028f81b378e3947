/**
 * @file
 * Run manifest: self-describing provenance embedded in every metrics
 * artifact.
 *
 * A metrics file found on disk six months later must answer "what
 * produced this?" on its own: the manifest records the git describe
 * of the built tree, the build type and flags, a canonical one-line
 * rendering of the configuration with its 64-bit FNV-1a hash, the
 * master seed, and the run's wall time and simulation rate. Timing
 * fields live only in the manifest — never in per-point metrics — so
 * the metric sections of two runs of the same config are
 * byte-identical regardless of machine load or --jobs.
 */

#ifndef HRSIM_OBS_MANIFEST_HH
#define HRSIM_OBS_MANIFEST_HH

#include <cstdint>
#include <string>
#include <string_view>

#include "core/system.hh"

namespace hrsim
{

struct RunManifest
{
    /** Schema identifier of the containing artifact. */
    std::string schema = "hrsim-metrics-v2";

    std::string gitDescribe; //!< git describe --always --dirty
    std::string buildType;   //!< CMAKE_BUILD_TYPE
    std::string buildFlags;  //!< configured extra compiler flags

    /** Canonical one-line config rendering (see configKey()). */
    std::string config;
    /** FNV-1a 64-bit hash of @ref config, "0x%016llx". */
    std::string configHash;

    std::uint64_t seed = 0;
    unsigned jobs = 1; //!< sweep workers (1 for single-point runs)
    /**
     * Worm-streaming fast path on for this run? Provenance, not
     * identity: both modes produce bit-identical results (the
     * bit-identity grid in tests/test_active_set.cc proves it), so
     * the flag lives next to jobs/wall time, outside configKey().
     */
    bool fastPath = true;

    /**
     * Columnar tick engine on for this run? Same provenance-not-
     * identity status as fastPath: HRSIM_NO_COLUMNAR=1 swaps in the
     * legacy per-node layout with bit-identical results.
     */
    bool columnar = true;

    /**
     * Checkpoint file the run was restored from (empty = cold
     * start). Schema-gated: the sinks emit a restored_from field
     * only when this is non-empty, so cold-start artifacts keep the
     * exact byte layout they had before checkpointing existed.
     * Provenance, not identity — a restored run's metric sections
     * are byte-identical to the uninterrupted run's.
     */
    std::string restoredFrom;

    double wallSeconds = 0.0;
    /** Simulated node-cycles per wall second over the whole run. */
    double nodeCyclesPerSec = 0.0;
};

/** FNV-1a 64-bit hash (stable across platforms and runs). */
std::uint64_t fnv1a64(std::string_view text);

/**
 * Canonical one-line rendering of every simulation-relevant field of
 * @a cfg. Two configs with equal keys produce identical runs; the
 * key (and its hash) therefore identifies a result, not a process.
 */
std::string configKey(const SystemConfig &cfg);

/**
 * Build a manifest for a finished run: provenance from build info,
 * config key/hash from @a cfg, throughput from @a total_node_cycles
 * (sum over points of cycles * PMs) and @a wall_seconds.
 */
RunManifest makeManifest(const SystemConfig &cfg, unsigned jobs,
                         double wall_seconds,
                         double total_node_cycles);

} // namespace hrsim

#endif // HRSIM_OBS_MANIFEST_HH
