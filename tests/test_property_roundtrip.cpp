// Property tests: randomized interface/argument round-trips through the
// full marshalling stack, and robustness of every decoder against
// corrupted bytes (must throw ninf errors, never crash or accept).
#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "idl/interface_info.h"
#include "protocol/call_marshal.h"
#include "protocol/message.h"
#include "stream_send.h"
#include "transport/inproc_transport.h"
#include "xdr/xdr.h"

namespace ninf {
namespace {

using idl::ExprProgram;
using idl::InterfaceInfo;
using idl::Mode;
using idl::Param;
using idl::ScalarType;
using protocol::ArgValue;

/// Build a random but valid interface: a leading scalar size parameter
/// plus a random mix of scalars and n-sized arrays.
InterfaceInfo randomInterface(SplitMix64& rng) {
  InterfaceInfo info;
  info.name = "f" + std::to_string(rng.nextBelow(1000000));
  info.call_language = "C";
  info.call_target = "target";
  Param n;
  n.name = "n";
  n.mode = Mode::In;
  n.type = ScalarType::Long;
  info.params.push_back(n);
  const std::size_t extra = 1 + rng.nextBelow(6);
  for (std::size_t i = 0; i < extra; ++i) {
    Param p;
    p.name = "p" + std::to_string(i);
    const auto kind = rng.nextBelow(5);
    switch (kind) {
      case 0:
        p.mode = Mode::In;
        p.type = rng.nextBool(0.5) ? ScalarType::Int : ScalarType::Double;
        break;
      case 1:
        p.mode = Mode::Out;
        p.type = rng.nextBool(0.5) ? ScalarType::Long : ScalarType::Double;
        break;
      case 2:  // input array of n elements
        p.mode = Mode::In;
        p.type = ScalarType::Double;
        p.dims.push_back(ExprProgram::argument(0));
        break;
      case 3:  // output array of n+2 elements
        p.mode = Mode::Out;
        p.type = ScalarType::Double;
        p.dims.push_back(ExprProgram(
            {{idl::Op::PushArg, 0}, {idl::Op::PushConst, 2},
             {idl::Op::Add, 0}}));
        break;
      default:  // inout array of n elements
        p.mode = Mode::InOut;
        p.type = ScalarType::Double;
        p.dims.push_back(ExprProgram::argument(0));
        break;
    }
    info.params.push_back(p);
  }
  for (std::uint32_t i = 0;
       i < static_cast<std::uint32_t>(info.params.size()); ++i) {
    info.call_arg_order.push_back(i);
  }
  return info;
}

class MarshalPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MarshalPropertyTest, RandomInterfaceFullRoundTrip) {
  SplitMix64 rng(GetParam());
  for (int iteration = 0; iteration < 20; ++iteration) {
    const InterfaceInfo info = randomInterface(rng);
    ASSERT_TRUE(info.validate());
    // Interface itself must round-trip through XDR.
    ASSERT_EQ(InterfaceInfo::fromBytes(info.toBytes()), info);

    const std::int64_t n = 1 + static_cast<std::int64_t>(rng.nextBelow(9));
    // Build matching arguments and remember expected outputs.
    std::vector<ArgValue> args;
    std::vector<std::unique_ptr<std::vector<double>>> arrays;
    std::vector<std::unique_ptr<std::int64_t>> int_sinks;
    std::vector<std::unique_ptr<double>> dbl_sinks;
    const std::vector<std::int64_t> scalars = [&] {
      std::vector<std::int64_t> s(info.params.size(), 0);
      s[0] = n;
      return s;
    }();
    args.push_back(ArgValue::inInt(n));
    for (std::size_t i = 1; i < info.params.size(); ++i) {
      const Param& p = info.params[i];
      if (p.isScalar()) {
        const bool integral =
            p.type == ScalarType::Int || p.type == ScalarType::Long;
        if (p.mode == Mode::Out) {
          if (integral) {
            int_sinks.push_back(std::make_unique<std::int64_t>(0));
            args.push_back(ArgValue::outInt(int_sinks.back().get()));
          } else {
            dbl_sinks.push_back(std::make_unique<double>(0));
            args.push_back(ArgValue::outDouble(dbl_sinks.back().get()));
          }
        } else if (integral) {
          args.push_back(
              ArgValue::inInt(static_cast<std::int64_t>(rng.nextBelow(100))));
        } else {
          args.push_back(ArgValue::inDouble(rng.nextDouble() * 10 - 5));
        }
        continue;
      }
      const std::size_t count =
          static_cast<std::size_t>(p.elementCount(scalars));
      arrays.push_back(std::make_unique<std::vector<double>>(count));
      for (double& v : *arrays.back()) v = rng.nextDouble() * 2 - 1;
      switch (p.mode) {
        case Mode::In:
          args.push_back(ArgValue::inArray(*arrays.back()));
          break;
        case Mode::Out:
          args.push_back(ArgValue::outArray(*arrays.back()));
          break;
        case Mode::InOut:
          args.push_back(ArgValue::inoutArray(*arrays.back()));
          break;
      }
    }

    // Client -> server.
    const auto request = protocol::encodeCallRequest(info, args);
    xdr::Decoder dec(request);
    ASSERT_EQ(dec.getString(), info.name);
    auto data = protocol::decodeCallArgs(info, dec);

    // "Execute": negate every outbound array, set scalars to markers.
    for (std::size_t i = 0; i < info.params.size(); ++i) {
      const Param& p = info.params[i];
      if (!p.shippedOut()) continue;
      if (p.isScalar()) {
        data.scalar_ints[i] = 4242;
        data.scalar_doubles[i] = 42.25;
      } else {
        for (std::size_t j = 0; j < data.arrays[i].size(); ++j) {
          data.arrays[i][j] = -static_cast<double>(j) - 1.0;
        }
      }
    }
    const auto reply = protocol::encodeCallReply(info, data, {});
    protocol::decodeCallReply(info, reply, args);

    // Check every output landed in caller memory.
    std::size_t array_idx = 0;
    for (std::size_t i = 1; i < info.params.size(); ++i) {
      const Param& p = info.params[i];
      if (p.isScalar()) continue;
      const auto& buf = *arrays[array_idx++];
      if (!p.shippedOut()) continue;
      for (std::size_t j = 0; j < buf.size(); ++j) {
        ASSERT_DOUBLE_EQ(buf[j], -static_cast<double>(j) - 1.0);
      }
    }
    for (const auto& sink : int_sinks) ASSERT_EQ(*sink, 4242);
    for (const auto& sink : dbl_sinks) ASSERT_DOUBLE_EQ(*sink, 42.25);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MarshalPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 101, 202, 303));

class FuzzDecodeTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzDecodeTest, RandomBytesNeverCrashDecoders) {
  SplitMix64 rng(GetParam());
  for (int iteration = 0; iteration < 200; ++iteration) {
    std::vector<std::uint8_t> junk(rng.nextBelow(200));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.nextBelow(256));
    // InterfaceInfo decoder.
    try {
      idl::InterfaceInfo::fromBytes(junk);
    } catch (const Error&) {
    }
    // ExprProgram decoder.
    try {
      xdr::Decoder dec(junk);
      idl::ExprProgram::decode(dec);
    } catch (const Error&) {
    }
    // Message framing (feed junk through a pipe).
    try {
      auto [a, b] = transport::inprocPair();
      sendBytes(*a, junk);
      a->shutdownSend();
      protocol::recvMessage(*b);
    } catch (const Error&) {
    }
  }
  SUCCEED();
}

TEST_P(FuzzDecodeTest, CorruptedValidPayloadsThrowDontCrash) {
  SplitMix64 rng(GetParam() ^ 0x5555);
  // Start from a valid encoded interface, then flip random bytes.
  SplitMix64 gen(7);
  const InterfaceInfo info = randomInterface(gen);
  const auto good = info.toBytes();
  for (int iteration = 0; iteration < 200; ++iteration) {
    auto bytes = good;
    const std::size_t flips = 1 + rng.nextBelow(8);
    for (std::size_t f = 0; f < flips; ++f) {
      bytes[rng.nextBelow(bytes.size())] ^=
          static_cast<std::uint8_t>(1 + rng.nextBelow(255));
    }
    try {
      const auto decoded = InterfaceInfo::fromBytes(bytes);
      // If it decoded, it must at least be structurally valid.
      EXPECT_TRUE(decoded.validate());
    } catch (const Error&) {
      // Expected for most corruptions.
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDecodeTest,
                         ::testing::Values(11, 22, 33, 44));

}  // namespace
}  // namespace ninf
