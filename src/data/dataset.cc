#include "data/dataset.h"

#include <algorithm>

#include "util/check.h"

namespace rfed {

Dataset::Dataset(Tensor images, std::vector<int> labels, int num_classes)
    : kind_(Kind::kImage),
      num_classes_(num_classes),
      images_(std::move(images)),
      labels_(std::move(labels)) {
  RFED_CHECK_EQ(images_.rank(), 4);
  RFED_CHECK_EQ(images_.dim(0), static_cast<int64_t>(labels_.size()));
  for (int label : labels_) {
    RFED_CHECK_GE(label, 0);
    RFED_CHECK_LT(label, num_classes_);
  }
}

Dataset::Dataset(std::vector<std::vector<int>> tokens, std::vector<int> labels,
                 int num_classes, int vocab_size)
    : kind_(Kind::kSequence),
      num_classes_(num_classes),
      vocab_size_(vocab_size),
      tokens_(std::move(tokens)),
      labels_(std::move(labels)) {
  RFED_CHECK_EQ(tokens_.size(), labels_.size());
  RFED_CHECK(!tokens_.empty());
  const size_t len = tokens_[0].size();
  for (const auto& seq : tokens_) {
    RFED_CHECK_EQ(seq.size(), len);
    for (int t : seq) {
      RFED_CHECK_GE(t, 0);
      RFED_CHECK_LT(t, vocab_size_);
    }
  }
}

Shape Dataset::ExampleShape() const {
  RFED_CHECK(kind_ == Kind::kImage);
  return Shape{images_.dim(1), images_.dim(2), images_.dim(3)};
}

int64_t Dataset::sequence_length() const {
  RFED_CHECK(kind_ == Kind::kSequence);
  return static_cast<int64_t>(tokens_[0].size());
}

Dataset Dataset::LabelsOnly() const {
  Dataset out =
      kind_ == Kind::kImage
          ? Dataset(Tensor(Shape{0, images_.dim(1), images_.dim(2),
                                 images_.dim(3)}),
                    {}, num_classes_)
          : Dataset({tokens_[0]}, {labels_[0]}, num_classes_, vocab_size_);
  out.labels_ = labels_;
  out.labels_only_ = true;
  return out;
}

Batch Dataset::GetBatch(const std::vector<int>& indices) const {
  RFED_CHECK(!labels_only_)
      << "GetBatch on a labels-only dataset: this process holds no examples";
  Batch batch;
  batch.labels.reserve(indices.size());
  for (int i : indices) {
    RFED_CHECK_GE(i, 0);
    RFED_CHECK_LT(i, size());
    batch.labels.push_back(labels_[static_cast<size_t>(i)]);
  }
  if (kind_ == Kind::kImage) {
    const int64_t example_size =
        images_.dim(1) * images_.dim(2) * images_.dim(3);
    // Every element is copied below, so the storage is not zero-filled.
    Tensor out = Tensor::Uninitialized(
        Shape{static_cast<int64_t>(indices.size()), images_.dim(1),
              images_.dim(2), images_.dim(3)});
    for (size_t i = 0; i < indices.size(); ++i) {
      const float* src = images_.data() + indices[i] * example_size;
      std::copy(src, src + example_size,
                out.data() + static_cast<int64_t>(i) * example_size);
    }
    batch.images = std::move(out);
  } else {
    batch.tokens.reserve(indices.size());
    for (int i : indices) batch.tokens.push_back(tokens_[static_cast<size_t>(i)]);
  }
  return batch;
}

Batch Dataset::GetAll() const {
  std::vector<int> all(static_cast<size_t>(size()));
  for (int64_t i = 0; i < size(); ++i) all[static_cast<size_t>(i)] = static_cast<int>(i);
  return GetBatch(all);
}

std::vector<int64_t> Dataset::ClassHistogram() const {
  std::vector<int64_t> hist(static_cast<size_t>(num_classes_), 0);
  for (int label : labels_) ++hist[static_cast<size_t>(label)];
  return hist;
}

}  // namespace rfed
