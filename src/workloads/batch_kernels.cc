#include "workloads/batch_kernels.h"

namespace slash::workloads {

uint32_t YsbFilterProjectBatch(core::RecordBatch* batch) {
  const uint32_t n = batch->size();
  int64_t* ts = batch->timestamps();
  uint64_t* keys = batch->keys();
  int64_t* values = batch->values();
  uint16_t* streams = batch->stream_ids();
  uint32_t kept = 0;
  // Branch-free keep-mask compaction: every survivor is written to the
  // next output slot; the write index advances by the predicate value.
  // Stable (preserves order), so downstream state updates apply in the
  // same order as the scalar path.
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t keep = values[i] == 0 ? 1u : 0u;
    ts[kept] = ts[i];
    keys[kept] = keys[i];
    values[kept] = 1;  // projection: every view counts once
    streams[kept] = streams[i];
    kept += keep;
  }
  batch->Resize(kept);
  return kept;
}

void AssignBucketsBatch(const core::RecordBatch& batch, int64_t window_size,
                        int64_t* out) {
  const uint32_t n = batch.size();
  const int64_t* ts = batch.timestamps();
  for (uint32_t i = 0; i < n; ++i) {
    out[i] = ts[i] / window_size;
  }
}

void BuildStateKeysBatch(const core::RecordBatch& batch,
                         const int64_t* buckets, state::StateKey* out) {
  const uint32_t n = batch.size();
  const uint64_t* keys = batch.keys();
  for (uint32_t i = 0; i < n; ++i) {
    out[i] = state::StateKey{keys[i], buckets[i]};
  }
}

void ChargeVectorizedPipeline(perf::CpuContext* cpu, uint64_t n,
                              uint64_t survivors, bool has_filter) {
  cpu->Charge(perf::Op::kBatchSetup);
  cpu->Charge(perf::Op::kVecRecordParse, double(n));
  if (has_filter) cpu->Charge(perf::Op::kVecFilterBranch, double(n));
  cpu->Charge(perf::Op::kVecHashCompute, double(survivors));
  cpu->Charge(perf::Op::kVecIndexProbe, double(survivors));
  cpu->Charge(perf::Op::kVecStateRmw, double(survivors));
}

void ChargeScalarPipeline(perf::CpuContext* cpu, uint64_t n,
                          uint64_t survivors, bool has_filter) {
  // Mirrors RecordPipeline::Process + ChargeStatefulPrologue + the probe
  // and RMW the engines charge per surviving record; filtered records stop
  // after the predicate, exactly like the interpreted path.
  cpu->Charge(perf::Op::kRecordParse, double(n));
  if (has_filter) cpu->Charge(perf::Op::kFilterBranch, double(n));
  cpu->Charge(perf::Op::kWindowAssign, double(survivors));
  cpu->Charge(perf::Op::kHashCompute, double(survivors));
  cpu->Charge(perf::Op::kIndexProbe, double(survivors));
  cpu->Charge(perf::Op::kStateRmw, double(survivors));
}

}  // namespace slash::workloads
