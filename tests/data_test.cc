#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

#include <gtest/gtest.h>

#include "data/batcher.h"
#include "data/dataset.h"
#include "data/partition.h"
#include "data/synthetic_images.h"
#include "data/synthetic_text.h"

namespace rfed {
namespace {

Dataset TinyImageDataset(int n, int classes) {
  Tensor images(Shape{n, 1, 4, 4});
  std::vector<int> labels(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    labels[static_cast<size_t>(i)] = i % classes;
    images.at(i * 16) = static_cast<float>(i);
  }
  return Dataset(std::move(images), std::move(labels), classes);
}

TEST(DatasetTest, ImageBatchExtraction) {
  Dataset data = TinyImageDataset(10, 5);
  Batch batch = data.GetBatch({3, 7});
  EXPECT_EQ(batch.size(), 2);
  EXPECT_EQ(batch.images.shape(), Shape({2, 1, 4, 4}));
  EXPECT_EQ(batch.images.at(0), 3.0f);
  EXPECT_EQ(batch.images.at(16), 7.0f);
  EXPECT_EQ(batch.labels[0], 3);
  EXPECT_EQ(batch.labels[1], 2);
}

TEST(DatasetTest, SequenceBatchExtraction) {
  Dataset data({{1, 2}, {3, 4}, {5, 6}}, {0, 1, 0}, 2, 10);
  EXPECT_EQ(data.kind(), Dataset::Kind::kSequence);
  EXPECT_EQ(data.sequence_length(), 2);
  Batch batch = data.GetBatch({2, 0});
  EXPECT_EQ(batch.tokens[0], (std::vector<int>{5, 6}));
  EXPECT_EQ(batch.labels[1], 0);
}

TEST(DatasetTest, ClassHistogram) {
  Dataset data = TinyImageDataset(10, 5);
  const auto hist = data.ClassHistogram();
  for (int64_t count : hist) EXPECT_EQ(count, 2);
}

TEST(DatasetTest, GetAllCoversEverything) {
  Dataset data = TinyImageDataset(6, 3);
  Batch all = data.GetAll();
  EXPECT_EQ(all.size(), 6);
}

TEST(DatasetTest, LabelsOnlyKeepsLabelsAndGeometry) {
  const Dataset images = TinyImageDataset(10, 5).LabelsOnly();
  EXPECT_EQ(images.size(), 10);
  EXPECT_EQ(images.ExampleShape(), Shape({1, 4, 4}));
  EXPECT_EQ(images.ClassHistogram(), TinyImageDataset(10, 5).ClassHistogram());
  const Dataset tokens =
      Dataset({{1, 2}, {3, 4}, {5, 6}}, {0, 1, 0}, 2, 10).LabelsOnly();
  EXPECT_EQ(tokens.size(), 3);
  EXPECT_EQ(tokens.sequence_length(), 2);
  EXPECT_EQ(tokens.labels(), (std::vector<int>{0, 1, 0}));
}

TEST(DatasetDeathTest, LabelsOnlyRefusesToMaterializeExamples) {
  const Dataset images = TinyImageDataset(10, 5).LabelsOnly();
  EXPECT_DEATH(images.GetBatch({0}), "labels-only dataset");
  EXPECT_DEATH(images.GetAll(), "labels-only dataset");
}

TEST(BatcherTest, EpochCoversAllIndices) {
  Dataset data = TinyImageDataset(10, 2);
  std::vector<int> view{0, 2, 4, 6, 8};
  Batcher batcher(&data, view, 2, Rng(1));
  EXPECT_EQ(batcher.BatchesPerEpoch(), 3);
  std::multiset<float> seen;
  for (int b = 0; b < 3; ++b) {
    Batch batch = batcher.Next();
    for (int64_t i = 0; i < batch.size(); ++i) {
      seen.insert(batch.images.at(i * 16));
    }
  }
  EXPECT_EQ(seen.size(), 5u);
  for (int idx : view) {
    EXPECT_EQ(seen.count(static_cast<float>(idx)), 1u);
  }
}

TEST(BatcherTest, LastBatchMayBeSmall) {
  Dataset data = TinyImageDataset(10, 2);
  Batcher batcher(&data, {0, 1, 2}, 2, Rng(2));
  EXPECT_EQ(batcher.Next().size(), 2);
  EXPECT_EQ(batcher.Next().size(), 1);
  EXPECT_EQ(batcher.Next().size(), 2);  // new epoch
}

TEST(PartitionTest, SplitIsDisjointAndComplete) {
  Dataset data = TinyImageDataset(100, 10);
  Rng rng(3);
  ClientSplit split = SimilarityPartition(data, 7, 0.3, &rng);
  EXPECT_EQ(split.num_clients(), 7);
  std::set<int> all;
  for (const auto& idx : split.client_indices) {
    for (int i : idx) {
      EXPECT_TRUE(all.insert(i).second) << "duplicate index " << i;
    }
  }
  EXPECT_EQ(all.size(), 100u);
}

TEST(PartitionTest, SkewDecreasesWithSimilarity) {
  Rng gen_rng(4);
  SyntheticImageData data =
      GenerateImageData(MnistLikeProfile(), 2000, 100, &gen_rng);
  Rng rng(5);
  const double skew0 = LabelSkew(data.train,
                                 SimilarityPartition(data.train, 10, 0.0, &rng));
  const double skew10 =
      LabelSkew(data.train, SimilarityPartition(data.train, 10, 0.1, &rng));
  const double skew100 =
      LabelSkew(data.train, SimilarityPartition(data.train, 10, 1.0, &rng));
  EXPECT_GT(skew0, skew10);
  EXPECT_GT(skew10, skew100);
  EXPECT_LT(skew100, 0.15);
  EXPECT_GT(skew0, 0.6);
}

TEST(PartitionTest, WeightsSumToOne) {
  Dataset data = TinyImageDataset(100, 10);
  Rng rng(6);
  ClientSplit split = SimilarityPartition(data, 9, 0.5, &rng);
  const auto weights = split.Weights();
  const double sum = std::accumulate(weights.begin(), weights.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(PartitionTest, NaturalPartitionGroupsOwners) {
  // 6 owners, 3 clients; every example of an owner must land on the same
  // client.
  std::vector<int> owner_ids;
  for (int i = 0; i < 60; ++i) owner_ids.push_back(i % 6);
  Rng rng(7);
  ClientSplit split = NaturalPartition(owner_ids, 6, 3, &rng);
  EXPECT_EQ(split.num_clients(), 3);
  for (int owner = 0; owner < 6; ++owner) {
    std::set<int> clients_of_owner;
    for (int k = 0; k < 3; ++k) {
      for (int idx : split.client_indices[static_cast<size_t>(k)]) {
        if (owner_ids[static_cast<size_t>(idx)] == owner) {
          clients_of_owner.insert(k);
        }
      }
    }
    EXPECT_EQ(clients_of_owner.size(), 1u);
  }
}

TEST(SyntheticImagesTest, ShapesAndLabelRange) {
  Rng rng(8);
  SyntheticImageData data =
      GenerateImageData(CifarLikeProfile(), 200, 50, &rng);
  EXPECT_EQ(data.train.size(), 200);
  EXPECT_EQ(data.test.size(), 50);
  EXPECT_EQ(data.train.ExampleShape(), Shape({3, 12, 12}));
  for (int64_t i = 0; i < data.train.size(); ++i) {
    EXPECT_GE(data.train.label(i), 0);
    EXPECT_LT(data.train.label(i), 10);
  }
}

TEST(SyntheticImagesTest, ClassesRoughlyBalanced) {
  Rng rng(9);
  SyntheticImageData data =
      GenerateImageData(MnistLikeProfile(), 5000, 100, &rng);
  const auto hist = data.train.ClassHistogram();
  for (int64_t count : hist) {
    EXPECT_GT(count, 350);
    EXPECT_LT(count, 650);
  }
}

TEST(SyntheticImagesTest, FemnistRecordsWriters) {
  Rng rng(10);
  const ImageProfile profile = FemnistLikeProfile();
  SyntheticImageData data = GenerateImageData(profile, 500, 50, &rng);
  EXPECT_EQ(data.train_writers.size(), 500u);
  std::set<int> writers(data.train_writers.begin(), data.train_writers.end());
  EXPECT_GT(writers.size(), 50u);
  for (int w : data.train_writers) {
    EXPECT_GE(w, 0);
    EXPECT_LT(w, profile.num_writers);
  }
}

TEST(SyntheticImagesTest, MnistProfileRecordsNoWriters) {
  Rng rng(11);
  SyntheticImageData data =
      GenerateImageData(MnistLikeProfile(), 100, 10, &rng);
  EXPECT_TRUE(data.train_writers.empty());
}

TEST(SyntheticImagesTest, DeterministicGivenSeed) {
  Rng rng_a(12), rng_b(12);
  SyntheticImageData a = GenerateImageData(MnistLikeProfile(), 50, 10, &rng_a);
  SyntheticImageData b = GenerateImageData(MnistLikeProfile(), 50, 10, &rng_b);
  EXPECT_EQ(a.train.labels(), b.train.labels());
  EXPECT_TRUE(AllClose(a.train.GetBatch({0}).images,
                       b.train.GetBatch({0}).images, 0.0f));
}

TEST(SyntheticImagesTest, MnistEasierThanCifar) {
  // The class-signal-to-noise ratio of the easy profile must exceed the
  // hard profile's: measured as mean between-class prototype distance
  // over within-class spread of raw pixels.
  Rng rng(13);
  auto snr = [&rng](const ImageProfile& profile) {
    SyntheticImageData data = GenerateImageData(profile, 600, 10, &rng);
    // Mean image per class.
    const int64_t dim = data.train.ExampleShape().num_elements();
    std::vector<Tensor> means(10, Tensor(Shape{dim}));
    std::vector<int> counts(10, 0);
    Batch all = data.train.GetAll();
    for (int64_t i = 0; i < all.size(); ++i) {
      const int label = all.labels[static_cast<size_t>(i)];
      for (int64_t p = 0; p < dim; ++p) {
        means[static_cast<size_t>(label)].at(p) += all.images.at(i * dim + p);
      }
      counts[static_cast<size_t>(label)]++;
    }
    for (int c = 0; c < 10; ++c) {
      means[static_cast<size_t>(c)].MulInPlace(
          1.0f / static_cast<float>(counts[static_cast<size_t>(c)]));
    }
    double between = 0.0;
    int pairs = 0;
    for (int a = 0; a < 10; ++a) {
      for (int b = a + 1; b < 10; ++b) {
        Tensor diff = means[static_cast<size_t>(a)];
        diff.SubInPlace(means[static_cast<size_t>(b)]);
        between += std::sqrt(static_cast<double>(diff.SquaredNorm()));
        ++pairs;
      }
    }
    between /= pairs;
    double within = 0.0;
    for (int64_t i = 0; i < all.size(); ++i) {
      const int label = all.labels[static_cast<size_t>(i)];
      double acc = 0.0;
      for (int64_t p = 0; p < dim; ++p) {
        const double d =
            all.images.at(i * dim + p) - means[static_cast<size_t>(label)].at(p);
        acc += d * d;
      }
      within += std::sqrt(acc);
    }
    within /= static_cast<double>(all.size());
    return between / within;
  };
  EXPECT_GT(snr(MnistLikeProfile()), snr(CifarLikeProfile()));
}

TEST(SyntheticTextTest, ShapesAndVocabulary) {
  Rng rng(14);
  TextProfile profile = Sent140LikeProfile();
  profile.num_users = 20;
  SyntheticTextData data = GenerateTextData(profile, 300, 50, &rng);
  EXPECT_EQ(data.train.size(), 300);
  EXPECT_EQ(data.train.kind(), Dataset::Kind::kSequence);
  EXPECT_EQ(data.train.sequence_length(), profile.sequence_length);
  EXPECT_EQ(data.train_users.size(), 300u);
}

TEST(SyntheticTextTest, SentimentBandsPredictLabel) {
  // Counting positive-band vs negative-band tokens should already beat
  // chance by a wide margin -> the corpus is learnable.
  Rng rng(15);
  TextProfile profile = Sent140LikeProfile();
  SyntheticTextData data = GenerateTextData(profile, 1000, 10, &rng);
  const int band = profile.vocab_size / 4;
  int correct = 0;
  Batch all = data.train.GetAll();
  for (int64_t i = 0; i < all.size(); ++i) {
    int pos = 0, neg = 0;
    for (int t : all.tokens[static_cast<size_t>(i)]) {
      if (t < band) ++pos;
      else if (t < 2 * band) ++neg;
    }
    const int pred = pos >= neg ? 0 : 1;
    if (pred == all.labels[static_cast<size_t>(i)]) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(all.size()),
            0.75);
}

TEST(SyntheticTextTest, UsersHaveSkewedClassBalance) {
  Rng rng(16);
  TextProfile profile = Sent140LikeProfile();
  profile.num_users = 10;
  profile.user_class_bias = 0.4f;
  SyntheticTextData data = GenerateTextData(profile, 2000, 10, &rng);
  // Per-user positive rate should vary (natural non-IID).
  std::vector<double> pos(10, 0.0), total(10, 0.0);
  for (int64_t i = 0; i < data.train.size(); ++i) {
    const int u = data.train_users[static_cast<size_t>(i)];
    total[static_cast<size_t>(u)] += 1.0;
    pos[static_cast<size_t>(u)] += data.train.label(i);
  }
  double min_rate = 1.0, max_rate = 0.0;
  for (int u = 0; u < 10; ++u) {
    const double rate = pos[static_cast<size_t>(u)] / total[static_cast<size_t>(u)];
    min_rate = std::min(min_rate, rate);
    max_rate = std::max(max_rate, rate);
  }
  EXPECT_GT(max_rate - min_rate, 0.2);
}

}  // namespace
}  // namespace rfed
