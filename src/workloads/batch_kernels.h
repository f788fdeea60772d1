// Vectorized (SIMD-friendly) kernels over columnar RecordBatches.
//
// These are the tight-loop counterparts of the interpreted per-record path
// (core/pipeline.h): keep-mask filter compaction, window-bucket assignment,
// state-key construction, and the batched probe/aggregate apply that runs
// through HashIndex::FindBatch / Partition::UpdateAggregateBatch. Each
// kernel is semantically identical to running its scalar counterpart over
// the batch elements in order — only the instruction schedule and memory
// access pattern differ (verified by tests/state_test.cc and
// tests/workloads_test.cc).
//
// Cost-model charging is the CALLER's job: the scalar path charges
// kRecordParse/kFilterBranch/... per record, the vectorized path charges
// kBatchSetup once per batch plus the kVec* ops per record (see
// perf/cost_model.h). Only bench/microbench_sim's operator sweep runs these
// kernels; the engines run the scalar per-record path.
#ifndef SLASH_WORKLOADS_BATCH_KERNELS_H_
#define SLASH_WORKLOADS_BATCH_KERNELS_H_

#include <cstdint>

#include "core/record_batch.h"
#include "perf/cost_model.h"
#include "state/partition.h"

namespace slash::workloads {

/// YSB's stateless prefix, vectorized: keep records with value == 0 (the
/// "view" event type) and project value = 1 (count contribution). In-place
/// keep-mask compaction over the columns; the batch shrinks to the
/// survivors. Returns the number kept. Identical to running
///   filter(value == 0); project(value = 1)
/// per record in order.
uint32_t YsbFilterProjectBatch(core::RecordBatch* batch);

/// Tumbling-window bucket assignment: out[i] = timestamps[i] / window_size.
void AssignBucketsBatch(const core::RecordBatch& batch, int64_t window_size,
                        int64_t* out);

/// Builds composite state keys (key, bucket) for the batched aggregate.
void BuildStateKeysBatch(const core::RecordBatch& batch,
                         const int64_t* buckets, state::StateKey* out);

/// Charges the vectorized operator pipeline for a batch of `n` records:
/// one kBatchSetup plus the per-record kVec* sequence mirroring the
/// interpreted scalar charges (parse, optional filter, hash, probe, RMW).
/// `survivors` is how many records pass the filter and reach the stateful
/// suffix.
void ChargeVectorizedPipeline(perf::CpuContext* cpu, uint64_t n,
                              uint64_t survivors, bool has_filter);

/// The scalar charge sequence the vectorized one replaces, for the batch=1
/// arm of the operator benchmarks: parse, optional filter, window assign +
/// hash, probe, RMW — per record, interpreted.
void ChargeScalarPipeline(perf::CpuContext* cpu, uint64_t n,
                          uint64_t survivors, bool has_filter);

}  // namespace slash::workloads

#endif  // SLASH_WORKLOADS_BATCH_KERNELS_H_
