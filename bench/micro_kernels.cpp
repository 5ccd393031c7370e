// Microbenchmarks (google-benchmark): the local kernels underpinning the
// study — XDR marshalling rate, LU factorization variants, dmmul, EP —
// so absolute host rates can be compared with the calibrated 1997
// machine models; plus the result-cache request digest, which every
// idempotent call pays over its whole request body.
#include <benchmark/benchmark.h>

#include "numlib/ep.h"
#include "numlib/lu.h"
#include "numlib/matrix.h"
#include "numlib/mmul.h"
#include "server/result_cache.h"
#include "xdr/xdr.h"

namespace {

using namespace ninf;

void BM_XdrEncodeDoubleArray(benchmark::State& state) {
  const std::size_t count = state.range(0);
  std::vector<double> data(count, 3.14);
  for (auto _ : state) {
    xdr::Encoder enc;
    enc.putDoubleArray(data);
    benchmark::DoNotOptimize(enc.bytes().data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          count * 8);
}
BENCHMARK(BM_XdrEncodeDoubleArray)->Range(1 << 10, 1 << 18);

void BM_XdrDecodeDoubleArray(benchmark::State& state) {
  const std::size_t count = state.range(0);
  std::vector<double> data(count, 3.14);
  xdr::Encoder enc;
  enc.putDoubleArray(data);
  std::vector<double> out(count);
  for (auto _ : state) {
    xdr::Decoder dec(enc.bytes());
    dec.getDoubleArrayInto(out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          count * 8);
}
BENCHMARK(BM_XdrDecodeDoubleArray)->Range(1 << 10, 1 << 18);

void BM_LuReference(benchmark::State& state) {
  const std::size_t n = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    numlib::Matrix a = numlib::randomMatrix(n, 1);
    state.ResumeTiming();
    benchmark::DoNotOptimize(numlib::dgefa(a));
  }
  state.counters["Mflops"] = benchmark::Counter(
      numlib::linpackFlops(n) / 1e6 * state.iterations(),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_LuReference)->Arg(128)->Arg(256)->Arg(350)->Arg(512);

void BM_LuBlocked(benchmark::State& state) {
  const std::size_t n = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    numlib::Matrix a = numlib::randomMatrix(n, 1);
    state.ResumeTiming();
    benchmark::DoNotOptimize(numlib::luBlocked(a));
  }
  state.counters["Mflops"] = benchmark::Counter(
      numlib::linpackFlops(n) / 1e6 * state.iterations(),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_LuBlocked)->Arg(128)->Arg(256)->Arg(350)->Arg(512);

void BM_LuParallel(benchmark::State& state) {
  const std::size_t n = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    numlib::Matrix a = numlib::randomMatrix(n, 1);
    state.ResumeTiming();
    benchmark::DoNotOptimize(numlib::luParallel(a, 4));
  }
}
BENCHMARK(BM_LuParallel)->Arg(256)->Arg(512);

void BM_Dmmul(benchmark::State& state) {
  const std::size_t n = state.range(0);
  const numlib::Matrix a = numlib::randomMatrix(n, 1);
  const numlib::Matrix b = numlib::randomMatrix(n, 2);
  numlib::Matrix c(n, n);
  for (auto _ : state) {
    numlib::dmmul(n, a.flat(), b.flat(), c.flat());
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_Dmmul)->Arg(64)->Arg(128)->Arg(256);

void BM_EpKernel(benchmark::State& state) {
  const std::int64_t pairs = state.range(0);
  std::int64_t offset = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(numlib::runEp(offset, pairs));
    offset += pairs;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          pairs);
}
BENCHMARK(BM_EpKernel)->Arg(1 << 12)->Arg(1 << 16);

/// Result-cache key over a request body: 48 B is an ep call, 4 KiB a
/// small array argument, 1 MiB a dmmul(n=256) / linpack(n=350) request.
void BM_RequestDigest(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> body(bytes);
  for (std::size_t i = 0; i < bytes; ++i) {
    body[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(server::ResultCache::digestOf(body));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_RequestDigest)->Arg(48)->Arg(4 << 10)->Arg(1 << 20);

}  // namespace
