#include "protocol/call_marshal.h"

#include "common/error.h"
#include "obs/trace.h"

namespace ninf::protocol {

using idl::InterfaceInfo;
using idl::Mode;
using idl::Param;
using idl::ScalarType;

ArgValue ArgValue::inInt(std::int64_t v) {
  ArgValue a;
  a.kind_ = Kind::InInt;
  a.int_ = v;
  return a;
}

ArgValue ArgValue::inDouble(double v) {
  ArgValue a;
  a.kind_ = Kind::InDouble;
  a.double_ = v;
  return a;
}

ArgValue ArgValue::outInt(std::int64_t* p) {
  ArgValue a;
  a.kind_ = Kind::OutInt;
  a.int_sink_ = p;
  return a;
}

ArgValue ArgValue::outDouble(double* p) {
  ArgValue a;
  a.kind_ = Kind::OutDouble;
  a.double_sink_ = p;
  return a;
}

ArgValue ArgValue::inArray(std::span<const double> data) {
  ArgValue a;
  a.kind_ = Kind::InArray;
  a.const_span_ = data;
  return a;
}

ArgValue ArgValue::outArray(std::span<double> data) {
  ArgValue a;
  a.kind_ = Kind::OutArray;
  a.mut_span_ = data;
  return a;
}

ArgValue ArgValue::inoutArray(std::span<double> data) {
  ArgValue a;
  a.kind_ = Kind::InOutArray;
  a.mut_span_ = data;
  a.const_span_ = data;
  return a;
}

namespace {

bool isIntegerType(ScalarType t) {
  return t == ScalarType::Int || t == ScalarType::Long;
}

void checkArity(const InterfaceInfo& info, std::span<const ArgValue> args) {
  if (args.size() != info.params.size()) {
    throw ProtocolError(info.name + " expects " +
                        std::to_string(info.params.size()) +
                        " arguments, got " + std::to_string(args.size()));
  }
}

/// Validate one argument's kind against the formal parameter.
void checkKind(const InterfaceInfo& info, const Param& p, const ArgValue& a) {
  using Kind = ArgValue::Kind;
  const auto bad = [&](const char* why) {
    throw ProtocolError(info.name + " parameter '" + p.name + "': " + why);
  };
  if (p.isScalar()) {
    switch (a.kind()) {
      case Kind::InInt:
        if (!p.shippedIn() || !isIntegerType(p.type)) {
          bad("integer input does not match declaration");
        }
        break;
      case Kind::InDouble:
        if (!p.shippedIn() || isIntegerType(p.type)) {
          bad("floating input does not match declaration");
        }
        break;
      case Kind::OutInt:
        if (p.mode != Mode::Out || !isIntegerType(p.type)) {
          bad("integer output does not match declaration");
        }
        if (a.intSink() == nullptr) bad("null output pointer");
        break;
      case Kind::OutDouble:
        if (p.mode != Mode::Out || isIntegerType(p.type)) {
          bad("floating output does not match declaration");
        }
        if (a.doubleSink() == nullptr) bad("null output pointer");
        break;
      default:
        bad("array supplied for scalar parameter");
    }
    return;
  }
  // Array parameter: only double arrays are shipped by the client API
  // (matching the paper's footnote that the client API supports matrices).
  if (p.type != ScalarType::Double) {
    bad("only double arrays are supported by the client API");
  }
  switch (a.kind()) {
    case Kind::InArray:
      if (p.mode != Mode::In) bad("const array for non-input parameter");
      break;
    case Kind::OutArray:
      if (p.mode != Mode::Out) bad("out array for non-output parameter");
      break;
    case Kind::InOutArray:
      if (p.mode != Mode::InOut) bad("inout array for non-inout parameter");
      break;
    default:
      bad("scalar supplied for array parameter");
  }
}

std::size_t expectedElements(const Param& p,
                             std::span<const std::int64_t> scalars,
                             const InterfaceInfo& info) {
  const std::int64_t count = p.elementCount(scalars);
  if (count < 0) {
    throw ProtocolError(info.name + " parameter '" + p.name +
                        "': negative element count");
  }
  return static_cast<std::size_t>(count);
}

}  // namespace

std::vector<std::int64_t> scalarArgs(const InterfaceInfo& info,
                                     std::span<const ArgValue> args) {
  checkArity(info, args);
  std::vector<std::int64_t> scalars(info.params.size(), 0);
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i].kind() == ArgValue::Kind::InInt) {
      scalars[i] = args[i].intValue();
    }
  }
  return scalars;
}

namespace {

/// Copy small arrays, reference large ones (scatter-gather emission).
void putArray(xdr::Encoder& enc, std::span<const double> data) {
  if (data.size() >= kArrayRefThresholdElems) {
    enc.putDoubleArrayRef(data);
  } else {
    enc.putDoubleArray(data);
  }
}

}  // namespace

xdr::Encoder buildCallRequest(const InterfaceInfo& info,
                              std::span<const ArgValue> args) {
  obs::Span span(obs::phase::kMarshalArgs);
  checkArity(info, args);
  const std::vector<std::int64_t> scalars = scalarArgs(info, args);

  xdr::Encoder enc;
  enc.putString(info.name);
  for (std::size_t i = 0; i < info.params.size(); ++i) {
    const Param& p = info.params[i];
    const ArgValue& a = args[i];
    checkKind(info, p, a);
    if (!p.shippedIn()) continue;
    if (p.isScalar()) {
      switch (p.type) {
        case ScalarType::Int:
          enc.putI32(static_cast<std::int32_t>(a.intValue()));
          break;
        case ScalarType::Long:
          enc.putI64(a.intValue());
          break;
        case ScalarType::Float:
          enc.putFloat(static_cast<float>(a.doubleValue()));
          break;
        case ScalarType::Double:
          enc.putDouble(a.doubleValue());
          break;
      }
    } else {
      const auto data = a.constSpan();
      const std::size_t expected = expectedElements(p, scalars, info);
      if (data.size() != expected) {
        throw ProtocolError(info.name + " parameter '" + p.name + "': " +
                            std::to_string(data.size()) +
                            " elements supplied, IDL implies " +
                            std::to_string(expected));
      }
      putArray(enc, data);
    }
  }
  span.setBytes(static_cast<std::int64_t>(enc.size()));
  return enc;
}

std::vector<std::uint8_t> encodeCallRequest(const InterfaceInfo& info,
                                            std::span<const ArgValue> args) {
  return buildCallRequest(info, args).take();
}

ServerCallData decodeCallArgs(const InterfaceInfo& info, xdr::Source& dec) {
  const std::size_t n = info.params.size();
  ServerCallData data;
  data.scalar_ints.assign(n, 0);
  data.scalar_doubles.assign(n, 0.0);
  data.arrays.resize(n);

  // First pass: decode exactly what the client shipped, in order.
  for (std::size_t i = 0; i < n; ++i) {
    const Param& p = info.params[i];
    if (!p.shippedIn()) continue;
    if (p.isScalar()) {
      switch (p.type) {
        case ScalarType::Int:
          data.scalar_ints[i] = dec.getI32();
          break;
        case ScalarType::Long:
          data.scalar_ints[i] = dec.getI64();
          break;
        case ScalarType::Float:
          data.scalar_doubles[i] = dec.getFloat();
          break;
        case ScalarType::Double:
          data.scalar_doubles[i] = dec.getDouble();
          break;
      }
    } else {
      data.arrays[i] = dec.getDoubleArray();
    }
  }
  if (!dec.atEnd()) {
    throw ProtocolError("trailing bytes after call arguments for " +
                        info.name);
  }

  // Second pass: with all scalars known, validate IN array sizes and
  // allocate OUT arrays.
  for (std::size_t i = 0; i < n; ++i) {
    const Param& p = info.params[i];
    if (p.isScalar()) continue;
    const std::size_t expected = expectedElements(p, data.scalar_ints, info);
    if (p.shippedIn()) {
      if (data.arrays[i].size() != expected) {
        throw ProtocolError(info.name + " parameter '" + p.name +
                            "': wire carried " +
                            std::to_string(data.arrays[i].size()) +
                            " elements, IDL implies " +
                            std::to_string(expected));
      }
    } else {
      data.arrays[i].assign(expected, 0.0);
    }
  }
  return data;
}

xdr::Encoder buildCallReply(const InterfaceInfo& info,
                            const ServerCallData& data,
                            const CallTimings& timings) {
  xdr::Encoder enc;
  enc.putU32(0);  // status: success
  enc.putDouble(timings.enqueue);
  enc.putDouble(timings.dequeue);
  enc.putDouble(timings.complete);
  for (std::size_t i = 0; i < info.params.size(); ++i) {
    const Param& p = info.params[i];
    if (!p.shippedOut()) continue;
    if (p.isScalar()) {
      switch (p.type) {
        case ScalarType::Int:
          enc.putI32(static_cast<std::int32_t>(data.scalar_ints[i]));
          break;
        case ScalarType::Long:
          enc.putI64(data.scalar_ints[i]);
          break;
        case ScalarType::Float:
          enc.putFloat(static_cast<float>(data.scalar_doubles[i]));
          break;
        case ScalarType::Double:
          enc.putDouble(data.scalar_doubles[i]);
          break;
      }
    } else {
      putArray(enc, data.arrays[i]);
    }
  }
  return enc;
}

std::vector<std::uint8_t> encodeCallReply(const InterfaceInfo& info,
                                          const ServerCallData& data,
                                          const CallTimings& timings) {
  return buildCallReply(info, data, timings).take();
}

std::vector<std::uint8_t> encodeErrorReply(const std::string& message) {
  xdr::Encoder enc;
  enc.putU32(1);  // status: error
  enc.putString(message);
  return enc.take();
}

CallTimings decodeCallReply(const InterfaceInfo& info, xdr::Source& dec,
                            std::span<const ArgValue> args) {
  obs::Span span(obs::phase::kUnmarshalResult,
                 static_cast<std::int64_t>(dec.remaining()));
  checkArity(info, args);
  const std::uint32_t status = dec.getU32();
  if (status != 0) {
    throw RemoteError(dec.getString());
  }
  CallTimings timings;
  timings.enqueue = dec.getDouble();
  timings.dequeue = dec.getDouble();
  timings.complete = dec.getDouble();

  for (std::size_t i = 0; i < info.params.size(); ++i) {
    const Param& p = info.params[i];
    if (!p.shippedOut()) continue;
    const ArgValue& a = args[i];
    if (p.isScalar()) {
      switch (p.type) {
        case ScalarType::Int:
          *a.intSink() = dec.getI32();
          break;
        case ScalarType::Long:
          *a.intSink() = dec.getI64();
          break;
        case ScalarType::Float:
          *a.doubleSink() = dec.getFloat();
          break;
        case ScalarType::Double:
          *a.doubleSink() = dec.getDouble();
          break;
      }
    } else {
      dec.getDoubleArrayInto(a.mutSpan());
    }
  }
  if (!dec.atEnd()) {
    throw ProtocolError("trailing bytes after call reply for " + info.name);
  }
  return timings;
}

CallTimings decodeCallReply(const InterfaceInfo& info,
                            std::span<const std::uint8_t> payload,
                            std::span<const ArgValue> args) {
  xdr::Decoder dec(payload);
  return decodeCallReply(info, dec, args);
}

}  // namespace ninf::protocol
