#ifndef RFED_DATA_DATASET_H_
#define RFED_DATA_DATASET_H_

#include <memory>
#include <vector>

#include "tensor/tensor.h"

namespace rfed {

/// One mini-batch handed to a model. Exactly one of {images, tokens} is
/// populated, matching the dataset kind.
struct Batch {
  Tensor images;                         ///< [B, C, H, W] for image data.
  std::vector<std::vector<int>> tokens;  ///< [B][T] token ids for sequences.
  std::vector<int> labels;               ///< B class labels.

  int64_t size() const { return static_cast<int64_t>(labels.size()); }
};

/// Immutable in-memory labeled dataset, either images (dense tensor) or
/// fixed-length token sequences. Clients hold index views into a shared
/// dataset (see ClientSplit in data/partition.h), so the simulator keeps a
/// single copy of each corpus regardless of the number of clients.
class Dataset {
 public:
  enum class Kind { kImage, kSequence };

  /// Image dataset; images [N, C, H, W], labels.size() == N.
  Dataset(Tensor images, std::vector<int> labels, int num_classes);

  /// Sequence dataset; all sequences must share the same length.
  Dataset(std::vector<std::vector<int>> tokens, std::vector<int> labels,
          int num_classes, int vocab_size);

  Kind kind() const { return kind_; }
  int64_t size() const { return static_cast<int64_t>(labels_.size()); }
  int num_classes() const { return num_classes_; }
  int vocab_size() const { return vocab_size_; }

  const std::vector<int>& labels() const { return labels_; }
  int label(int64_t i) const { return labels_[static_cast<size_t>(i)]; }

  /// Shape of one image example [C, H, W]; requires kind() == kImage.
  Shape ExampleShape() const;
  /// Sequence length; requires kind() == kSequence.
  int64_t sequence_length() const;

  /// A copy with the labels, class count and example geometry but none
  /// of the examples: what a process needs to partition and weight
  /// clients whose data lives elsewhere (a serve-mode rFedAvg+ server).
  /// GetBatch and GetAll on it abort, so a process that must never read
  /// training examples is checked at runtime.
  Dataset LabelsOnly() const;

  /// Materializes the examples at `indices` into a batch.
  Batch GetBatch(const std::vector<int>& indices) const;

  /// Batch over all examples (for evaluation of small datasets).
  Batch GetAll() const;

  /// Number of examples per class.
  std::vector<int64_t> ClassHistogram() const;

 private:
  Kind kind_;
  int num_classes_;
  int vocab_size_ = 0;
  Tensor images_;  // [N, C, H, W] when kind_ == kImage.
  std::vector<std::vector<int>> tokens_;
  std::vector<int> labels_;
  bool labels_only_ = false;
};

}  // namespace rfed

#endif  // RFED_DATA_DATASET_H_
