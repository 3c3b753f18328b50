#ifndef ODNET_DATA_ENCODING_H_
#define ODNET_DATA_ENCODING_H_

#include <cstdint>
#include <vector>

#include "src/data/temporal_features.h"
#include "src/data/types.h"

namespace odnet {
namespace data {

/// Fixed sequence lengths used when padding/truncating user behaviors.
struct SequenceSpec {
  int64_t t_long = 10;   // most recent long-term bookings kept
  int64_t t_short = 5;   // most recent short-term clicks kept
};

/// One task-view (origin-aware or destination-aware) minibatch, flattened
/// into the id/mask arrays the models consume. Sequences are padded at the
/// front with city id 0 and masked out.
struct TaskBatch {
  int64_t batch = 0;
  int64_t t_long = 0;
  int64_t t_short = 0;

  std::vector<int64_t> user_ids;       // [B]
  std::vector<int64_t> current_city;   // [B]
  std::vector<int64_t> candidate;      // [B] candidate city for this role
  std::vector<float> labels;           // [B] per-role label

  std::vector<int64_t> long_seq;       // [B * t_long] role-view city ids
  std::vector<float> long_pad;         // [B * t_long] 1 = real, 0 = pad
  std::vector<int64_t> short_seq;      // [B * t_short]
  std::vector<float> short_pad;        // [B * t_short]

  /// Day gaps and travel distances between consecutive kept long-term
  /// events (0 at pads); consumed by interval-aware baselines (STGN).
  std::vector<float> long_day_gap;     // [B * t_long]
  std::vector<float> long_dist_gap;    // [B * t_long]

  std::vector<float> xst;              // [B * TemporalFeatureIndex::kDim]
};

/// Additive attention mask of a pad vector, written to `out` (pad.size()
/// floats): 0 where real (pad > 0.5), -1e9 where padded.
void AdditiveMask(const std::vector<float>& pad, float* out);

/// The distinct behaviour sequences of a TaskBatch: rows whose
/// long_seq/long_pad/short_seq/short_pad slices are equal (bitwise) share
/// one entry. Distinct rows are numbered in order of first occurrence, so a
/// batch with no repeats maps every row to itself.
struct DistinctSequences {
  int64_t count = 0;                     // U
  std::vector<int64_t> row_to_distinct;  // [B] batch row -> distinct row
  std::vector<int64_t> long_seq;         // [U * t_long]
  std::vector<float> long_pad;           // [U * t_long]
  std::vector<int64_t> short_seq;        // [U * t_short]
  std::vector<float> short_pad;          // [U * t_short]
  std::vector<int64_t> slots;            // open-addressing scratch
};

/// Fills `*out` from `batch` in O(B * (t_long + t_short)). Reuses the
/// vector objects of `*out` (their addresses never change), so plan host
/// stages can rebuild it in place.
void BuildDistinctSequences(const TaskBatch& batch, DistinctSequences* out);

/// Joint batch pairing the two role views of the same samples (what the
/// multi-task ODNET consumes).
struct OdBatch {
  TaskBatch origin;       // origin-aware view, labels = label_o
  TaskBatch destination;  // destination-aware view, labels = label_d
};

/// Copies `src`'s contents into `*dst` WITHOUT changing the addresses of
/// dst's field objects (each vector is assigned element-wise into place).
/// This is how captured execution plans are fed a new batch: the plan's
/// host closures hold pointers to the bound batch's field vectors, so
/// refreshing the contents in place makes the next replay see the new
/// data. Dimensions (batch, t_long, t_short) must match the bound batch —
/// shape changes require capturing a new plan — and are CHECKed.
void CopyTaskBatchContents(const TaskBatch& src, TaskBatch* dst);
void CopyOdBatchContents(const OdBatch& src, OdBatch* dst);

/// \brief Translates (UserHistory, Sample) rows into padded id batches.
///
/// The origin view of a booking sequence is its origin-city sequence, the
/// destination view its destination-city sequence — this is how the two
/// HSGC/PEC copies of Fig. 3 receive different projections of the same
/// behaviour.
class BatchEncoder {
 public:
  /// `city_distance(a, b)` supplies distances for the interval features;
  /// pass nullptr to emit zeros. Pointers must outlive the encoder.
  BatchEncoder(const OdDataset* dataset, const TemporalFeatureIndex* temporal,
               SequenceSpec spec);

  /// Encodes `samples[begin, end)` into the given role view.
  TaskBatch EncodeOrigin(const std::vector<Sample>& samples, size_t begin,
                         size_t end) const;
  TaskBatch EncodeDestination(const std::vector<Sample>& samples, size_t begin,
                              size_t end) const;

  /// Both views at once.
  OdBatch EncodeJoint(const std::vector<Sample>& samples, size_t begin,
                      size_t end) const;

  const SequenceSpec& spec() const { return spec_; }

 private:
  TaskBatch Encode(const std::vector<Sample>& samples, size_t begin,
                   size_t end, bool origin_role) const;

  const OdDataset* dataset_;
  const TemporalFeatureIndex* temporal_;
  SequenceSpec spec_;
};

}  // namespace data
}  // namespace odnet

#endif  // ODNET_DATA_ENCODING_H_
