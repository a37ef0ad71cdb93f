//===- Metrics.cpp - Counters, gauges and histograms --------------------------//

#include "trace/Metrics.h"

#include <algorithm>
#include <cassert>

namespace veriopt {

Histogram::Histogram(std::vector<double> Bounds)
    : Bounds(std::move(Bounds)), BucketCounts(this->Bounds.size() + 1) {
  assert(std::is_sorted(this->Bounds.begin(), this->Bounds.end()) &&
         "histogram bounds must be increasing");
}

void Histogram::observe(double X) {
  // Inclusive upper edge: x == Bounds[i] lands in bucket i (`le` semantics).
  size_t Idx = static_cast<size_t>(
      std::lower_bound(Bounds.begin(), Bounds.end(), X) - Bounds.begin());
  BucketCounts[Idx].fetch_add(1, std::memory_order_relaxed);
  N.fetch_add(1, std::memory_order_relaxed);
  Sum.fetch_add(X, std::memory_order_relaxed);
}

std::vector<uint64_t> Histogram::counts() const {
  std::vector<uint64_t> Out(BucketCounts.size());
  for (size_t I = 0; I < BucketCounts.size(); ++I)
    Out[I] = BucketCounts[I].load(std::memory_order_relaxed);
  return Out;
}

double Histogram::sum() const { return Sum.load(std::memory_order_relaxed); }

void Histogram::reset() {
  for (auto &B : BucketCounts)
    B.store(0, std::memory_order_relaxed);
  N.store(0, std::memory_order_relaxed);
  Sum.store(0, std::memory_order_relaxed);
}

std::vector<double> latencyMsBounds() {
  // 0.01ms .. 10486ms in x4 steps: covers BLEU-fast scoring ticks up to a
  // pathological multi-second verification, in 11 fixed buckets.
  std::vector<double> B;
  for (double V = 0.01; V <= 11000.0; V *= 4)
    B.push_back(V);
  return B;
}

std::vector<double> workUnitBounds() {
  // 1 .. 4^12 (~16.7M) abstract units in x4 steps: conflicts and fuel.
  std::vector<double> B;
  double V = 1;
  for (int I = 0; I <= 12; ++I, V *= 4)
    B.push_back(V);
  return B;
}

MetricsRegistry &MetricsRegistry::global() {
  static MetricsRegistry R;
  return R;
}

Counter &MetricsRegistry::counter(const std::string &Name) {
  std::lock_guard<std::mutex> L(M);
  auto &Slot = Counters[Name];
  if (!Slot)
    Slot = std::make_unique<Counter>();
  return *Slot;
}

Gauge &MetricsRegistry::gauge(const std::string &Name) {
  std::lock_guard<std::mutex> L(M);
  auto &Slot = Gauges[Name];
  if (!Slot)
    Slot = std::make_unique<Gauge>();
  return *Slot;
}

Histogram &MetricsRegistry::histogram(const std::string &Name,
                                      std::vector<double> Bounds) {
  std::lock_guard<std::mutex> L(M);
  auto &Slot = Histograms[Name];
  if (!Slot)
    Slot = std::make_unique<Histogram>(std::move(Bounds));
  return *Slot;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> L(M);
  for (auto &[_, C] : Counters)
    C->reset();
  for (auto &[_, G] : Gauges)
    G->reset();
  for (auto &[_, H] : Histograms)
    H->reset();
}

MetricsRegistry::Snapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> L(M);
  Snapshot S;
  for (const auto &[Name, C] : Counters)
    S.Counters[Name] = C->value();
  for (const auto &[Name, G] : Gauges)
    S.Gauges[Name] = G->value();
  for (const auto &[Name, H] : Histograms) {
    HistogramSnapshot HS;
    HS.Bounds = H->bounds();
    HS.Counts = H->counts();
    HS.Count = H->count();
    HS.Sum = H->sum();
    S.Histograms[Name] = std::move(HS);
  }
  return S;
}

} // namespace veriopt
