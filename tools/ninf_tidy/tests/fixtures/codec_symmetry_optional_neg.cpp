// Fixture: a codec whose last word is optional, written and read under
// matching conditions.  Must be clean.
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

struct Hello {
  unsigned max_version = 0;
  Maybe features;

  void encode(Encoder& enc) const {
    enc.putU32(max_version);
    if (features) enc.putU32(*features);
  }

  static Hello decode(Source& src) {
    Hello hello;
    hello.max_version = src.getU32();
    if (src.remaining() >= 4) hello.features = src.getU32();
    return hello;
  }
};
