#include "src/data/encoding.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/util/check.h"

namespace odnet {
namespace data {

void AdditiveMask(const std::vector<float>& pad, float* out) {
  for (size_t i = 0; i < pad.size(); ++i) {
    out[i] = pad[i] > 0.5f ? 0.0f : -1e9f;
  }
}

namespace {

// Row r of a TaskBatch as the four sequence slices that key it.
struct SequenceRow {
  const int64_t* long_seq;
  const float* long_pad;
  const int64_t* short_seq;
  const float* short_pad;
};

SequenceRow RowOf(const TaskBatch& batch, int64_t r) {
  const size_t l = static_cast<size_t>(r * batch.t_long);
  const size_t s = static_cast<size_t>(r * batch.t_short);
  return {batch.long_seq.data() + l, batch.long_pad.data() + l,
          batch.short_seq.data() + s, batch.short_pad.data() + s};
}

uint64_t HashBytes(uint64_t h, const void* data, size_t bytes) {
  // FNV-1a over the raw bytes: pads hash (and compare) by bit pattern.
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

uint64_t HashRow(const SequenceRow& row, int64_t t_long, int64_t t_short) {
  const size_t tl = static_cast<size_t>(t_long);
  const size_t ts = static_cast<size_t>(t_short);
  uint64_t h = 14695981039346656037ULL;
  h = HashBytes(h, row.long_seq, tl * sizeof(int64_t));
  h = HashBytes(h, row.long_pad, tl * sizeof(float));
  h = HashBytes(h, row.short_seq, ts * sizeof(int64_t));
  return HashBytes(h, row.short_pad, ts * sizeof(float));
}

bool RowsEqual(const SequenceRow& a, const SequenceRow& b, int64_t t_long,
               int64_t t_short) {
  const size_t tl = static_cast<size_t>(t_long);
  const size_t ts = static_cast<size_t>(t_short);
  return std::memcmp(a.long_seq, b.long_seq, tl * sizeof(int64_t)) == 0 &&
         std::memcmp(a.long_pad, b.long_pad, tl * sizeof(float)) == 0 &&
         std::memcmp(a.short_seq, b.short_seq, ts * sizeof(int64_t)) == 0 &&
         std::memcmp(a.short_pad, b.short_pad, ts * sizeof(float)) == 0;
}

}  // namespace

void BuildDistinctSequences(const TaskBatch& batch, DistinctSequences* out) {
  ODNET_CHECK(out != nullptr);
  const int64_t b = batch.batch;
  const int64_t tl = batch.t_long;
  const int64_t ts = batch.t_short;
  ODNET_CHECK_EQ(static_cast<int64_t>(batch.long_seq.size()), b * tl);
  ODNET_CHECK_EQ(static_cast<int64_t>(batch.long_pad.size()), b * tl);
  ODNET_CHECK_EQ(static_cast<int64_t>(batch.short_seq.size()), b * ts);
  ODNET_CHECK_EQ(static_cast<int64_t>(batch.short_pad.size()), b * ts);

  // Open addressing at load <= 1/2; each slot holds the batch row that
  // first carried its sequence (-1 = empty).
  size_t capacity = 2;
  while (capacity < static_cast<size_t>(2 * b)) capacity *= 2;
  out->slots.assign(capacity, -1);
  out->row_to_distinct.resize(static_cast<size_t>(b));
  out->long_seq.clear();
  out->long_pad.clear();
  out->short_seq.clear();
  out->short_pad.clear();
  out->count = 0;
  for (int64_t r = 0; r < b; ++r) {
    const SequenceRow row = RowOf(batch, r);
    size_t slot = HashRow(row, tl, ts) & (capacity - 1);
    while (out->slots[slot] >= 0 &&
           !RowsEqual(RowOf(batch, out->slots[slot]), row, tl, ts)) {
      slot = (slot + 1) & (capacity - 1);
    }
    if (out->slots[slot] >= 0) {
      out->row_to_distinct[static_cast<size_t>(r)] =
          out->row_to_distinct[static_cast<size_t>(out->slots[slot])];
      continue;
    }
    out->slots[slot] = r;
    out->row_to_distinct[static_cast<size_t>(r)] = out->count++;
    out->long_seq.insert(out->long_seq.end(), row.long_seq, row.long_seq + tl);
    out->long_pad.insert(out->long_pad.end(), row.long_pad, row.long_pad + tl);
    out->short_seq.insert(out->short_seq.end(), row.short_seq,
                          row.short_seq + ts);
    out->short_pad.insert(out->short_pad.end(), row.short_pad,
                          row.short_pad + ts);
  }
}

BatchEncoder::BatchEncoder(const OdDataset* dataset,
                           const TemporalFeatureIndex* temporal,
                           SequenceSpec spec)
    : dataset_(dataset), temporal_(temporal), spec_(spec) {
  ODNET_CHECK(dataset != nullptr);
  ODNET_CHECK_GT(spec.t_long, 0);
  ODNET_CHECK_GT(spec.t_short, 0);
}

TaskBatch BatchEncoder::Encode(const std::vector<Sample>& samples,
                               size_t begin, size_t end,
                               bool origin_role) const {
  ODNET_CHECK_LE(begin, end);
  ODNET_CHECK_LE(end, samples.size());
  const int64_t batch = static_cast<int64_t>(end - begin);
  TaskBatch out;
  out.batch = batch;
  out.t_long = spec_.t_long;
  out.t_short = spec_.t_short;
  out.user_ids.reserve(static_cast<size_t>(batch));
  out.current_city.reserve(static_cast<size_t>(batch));
  out.candidate.reserve(static_cast<size_t>(batch));
  out.labels.reserve(static_cast<size_t>(batch));
  out.long_seq.assign(static_cast<size_t>(batch * spec_.t_long), 0);
  out.long_pad.assign(static_cast<size_t>(batch * spec_.t_long), 0.0f);
  out.long_day_gap.assign(static_cast<size_t>(batch * spec_.t_long), 0.0f);
  out.long_dist_gap.assign(static_cast<size_t>(batch * spec_.t_long), 0.0f);
  out.short_seq.assign(static_cast<size_t>(batch * spec_.t_short), 0);
  out.short_pad.assign(static_cast<size_t>(batch * spec_.t_short), 0.0f);
  out.xst.reserve(static_cast<size_t>(batch * TemporalFeatureIndex::kDim));

  for (size_t s = begin; s < end; ++s) {
    const Sample& sample = samples[s];
    const UserHistory& h =
        dataset_->histories[static_cast<size_t>(sample.user)];
    const int64_t row = static_cast<int64_t>(s - begin);
    out.user_ids.push_back(sample.user);
    out.current_city.push_back(h.current_city);
    int64_t cand = origin_role ? sample.candidate.origin
                               : sample.candidate.destination;
    out.candidate.push_back(cand);
    out.labels.push_back(origin_role ? sample.label_o : sample.label_d);

    // Long-term: keep the most recent t_long bookings, right-aligned.
    const int64_t available = static_cast<int64_t>(h.long_term.size());
    const int64_t keep = std::min(available, spec_.t_long);
    const int64_t src_start = available - keep;
    const int64_t dst_start = spec_.t_long - keep;
    for (int64_t i = 0; i < keep; ++i) {
      const Booking& b = h.long_term[static_cast<size_t>(src_start + i)];
      size_t idx = static_cast<size_t>(row * spec_.t_long + dst_start + i);
      out.long_seq[idx] = origin_role ? b.od.origin : b.od.destination;
      out.long_pad[idx] = 1.0f;
      if (i > 0) {
        const Booking& prev =
            h.long_term[static_cast<size_t>(src_start + i - 1)];
        out.long_day_gap[idx] =
            static_cast<float>(std::log1p(static_cast<double>(
                std::max<int64_t>(b.day - prev.day, 0))));
        // Distance proxy: |city id delta| is meaningless; callers with a
        // geographic atlas overwrite this. By default we record whether
        // consecutive role cities changed (0/1), still informative.
        int64_t prev_city =
            origin_role ? prev.od.origin : prev.od.destination;
        out.long_dist_gap[idx] = out.long_seq[idx] == prev_city ? 0.0f : 1.0f;
      }
    }

    // Short-term: most recent t_short clicks, right-aligned.
    const int64_t s_available = static_cast<int64_t>(h.short_term.size());
    const int64_t s_keep = std::min(s_available, spec_.t_short);
    const int64_t s_src = s_available - s_keep;
    const int64_t s_dst = spec_.t_short - s_keep;
    for (int64_t i = 0; i < s_keep; ++i) {
      const Click& c = h.short_term[static_cast<size_t>(s_src + i)];
      size_t idx = static_cast<size_t>(row * spec_.t_short + s_dst + i);
      out.short_seq[idx] = origin_role ? c.od.origin : c.od.destination;
      out.short_pad[idx] = 1.0f;
    }

    // Temporal statistics for the candidate in this role.
    if (temporal_ != nullptr) {
      auto feats = origin_role ? temporal_->OriginFeatures(h, cand)
                               : temporal_->DestinationFeatures(h, cand);
      out.xst.insert(out.xst.end(), feats.begin(), feats.end());
    } else {
      out.xst.insert(out.xst.end(), TemporalFeatureIndex::kDim, 0.0f);
    }
  }
  return out;
}

TaskBatch BatchEncoder::EncodeOrigin(const std::vector<Sample>& samples,
                                     size_t begin, size_t end) const {
  return Encode(samples, begin, end, /*origin_role=*/true);
}

TaskBatch BatchEncoder::EncodeDestination(const std::vector<Sample>& samples,
                                          size_t begin, size_t end) const {
  return Encode(samples, begin, end, /*origin_role=*/false);
}

OdBatch BatchEncoder::EncodeJoint(const std::vector<Sample>& samples,
                                  size_t begin, size_t end) const {
  return OdBatch{EncodeOrigin(samples, begin, end),
                 EncodeDestination(samples, begin, end)};
}

void CopyTaskBatchContents(const TaskBatch& src, TaskBatch* dst) {
  ODNET_CHECK(dst != nullptr);
  ODNET_CHECK_EQ(src.batch, dst->batch) << "batch size changed under a plan";
  ODNET_CHECK_EQ(src.t_long, dst->t_long) << "t_long changed under a plan";
  ODNET_CHECK_EQ(src.t_short, dst->t_short) << "t_short changed under a plan";
  // Vector assignment reuses the destination's capacity; the field objects
  // themselves (what plan closures point at) never move.
  dst->user_ids = src.user_ids;
  dst->current_city = src.current_city;
  dst->candidate = src.candidate;
  dst->labels = src.labels;
  dst->long_seq = src.long_seq;
  dst->long_pad = src.long_pad;
  dst->short_seq = src.short_seq;
  dst->short_pad = src.short_pad;
  dst->long_day_gap = src.long_day_gap;
  dst->long_dist_gap = src.long_dist_gap;
  dst->xst = src.xst;
}

void CopyOdBatchContents(const OdBatch& src, OdBatch* dst) {
  ODNET_CHECK(dst != nullptr);
  CopyTaskBatchContents(src.origin, &dst->origin);
  CopyTaskBatchContents(src.destination, &dst->destination);
}

}  // namespace data
}  // namespace odnet
