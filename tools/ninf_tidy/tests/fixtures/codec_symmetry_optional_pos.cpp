// Fixture: a codec whose last word is optional (written and read only
// when present), defined right after an out-of-line qualified
// operator=.  The encoder forgets the optional word; the check must
// still see both functions and flag it.
struct Encoder {
  void putU32(unsigned v);
};
struct Source {
  unsigned getU32();
  unsigned remaining() const;
};
struct Maybe {
  explicit operator bool() const;
  unsigned operator*() const;
  Maybe& operator=(unsigned v);
};

struct Owner {
  struct Claim {
    Claim& operator=(Claim&& other) noexcept;
    unsigned bytes = 0;
  };
};

struct Ack {
  unsigned version = 0;
  Maybe features;

  void encode(Encoder& enc) const;
  static Ack decode(Source& src);
};

Owner::Claim& Owner::Claim::operator=(Claim&& other) noexcept {
  if (this != &other) {
    bytes = other.bytes;
  }
  return *this;
}

void Ack::encode(Encoder& enc) const {
  enc.putU32(version);
}

Ack Ack::decode(Source& src) {
  Ack ack;
  ack.version = src.getU32();
  if (src.remaining() >= 4) ack.features = src.getU32();
  return ack;
}
