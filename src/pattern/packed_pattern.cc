#include "pattern/packed_pattern.h"

#include <cassert>

namespace coverage {

namespace {
constexpr char kDigits[] = "0123456789abcdefghijklmnopqrstuvwxyz";
}  // namespace

StatusOr<PatternCodec> PatternCodec::Build(const Schema& schema) {
  PatternCodec codec;
  const int d = schema.num_attributes();
  codec.fields_.reserve(static_cast<std::size_t>(d));
  codec.cardinalities_ = schema.cardinalities();

  int word = 0;
  int shift = 0;
  for (int attr = 0; attr < d; ++attr) {
    const int c = schema.cardinality(attr);
    assert(c >= 1);
    // c + 1 codes: values 0..c-1 plus the all-ones wildcard.
    const int bits = std::bit_width(static_cast<unsigned>(c));
    if (shift + bits > 64) {  // fields never straddle a word boundary
      ++word;
      shift = 0;
    }
    Field f;
    f.word = static_cast<std::uint8_t>(word);  // checked against the cap below
    f.shift = static_cast<std::uint8_t>(shift);
    f.bits = static_cast<std::uint8_t>(bits);
    f.low_mask = (bits == 64) ? ~std::uint64_t{0}
                              : ((std::uint64_t{1} << bits) - 1);
    codec.fields_.push_back(f);
    shift += bits;
  }
  const int needed_bits = word * 64 + shift;
  if (needed_bits > kMaxPackedKeyBits) {
    return Status::ResourceExhausted(
        "schema needs " + std::to_string(needed_bits) +
        " pattern-key bits across " + std::to_string(d) +
        " attributes; pattern keys hold at most " +
        std::to_string(kMaxPackedKeyBits));
  }
  codec.num_words_ = d == 0 ? 1 : word + 1;
  for (const int width : kPackedKeyWidths) {
    if (codec.num_words_ <= width) {
      codec.key_words_ = width;
      break;
    }
  }

  codec.attr_of_bit_.assign(
      static_cast<std::size_t>(codec.num_words_) * 64, std::int16_t{-1});
  for (int attr = 0; attr < d; ++attr) {
    const Field& f = codec.fields_[static_cast<std::size_t>(attr)];
    codec.layout_[f.word] |= f.low_mask << f.shift;
    codec.first_bits_[f.word] |= std::uint64_t{1} << f.shift;
    codec.attr_of_bit_[static_cast<std::size_t>(f.word) * 64 + f.shift] =
        static_cast<std::int16_t>(attr);
  }
  return codec;
}

int PatternCodec::EncodeCells(std::span<const Value> cells,
                              std::uint64_t* words, std::uint64_t* det) const {
  assert(static_cast<int>(cells.size()) == num_attributes());
  int level = 0;
  for (int attr = 0; attr < num_attributes(); ++attr) {
    const Field& f = fields_[static_cast<std::size_t>(attr)];
    const Value v = cells[static_cast<std::size_t>(attr)];
    if (v == kWildcard) {
      words[f.word] |= f.low_mask << f.shift;
    } else {
      words[f.word] |= static_cast<std::uint64_t>(v) << f.shift;
      det[f.word] |= f.low_mask << f.shift;
      ++level;
    }
  }
  return level;
}

Pattern PatternCodec::Decode(PackedKeyView packed) const {
  std::vector<Value> cells(static_cast<std::size_t>(num_attributes()));
  for (int attr = 0; attr < num_attributes(); ++attr) {
    cells[static_cast<std::size_t>(attr)] = cell(packed, attr);
  }
  return Pattern(std::move(cells));
}

int PatternCodec::level(PackedKeyView p) const {
  int level = 0;
  for (int w = 0; w < num_words_; ++w) {
    level += std::popcount(p.det[w] & first_bits_[w]);
  }
  return level;
}

int PatternCodec::RightmostDeterministic(PackedKeyView p) const {
  for (int w = num_words_ - 1; w >= 0; --w) {
    const std::uint64_t bits = p.det[w] & first_bits_[w];
    if (bits != 0) {
      const int bit = 63 - std::countl_zero(bits);
      return attr_of_bit_[static_cast<std::size_t>(w * 64 + bit)];
    }
  }
  return -1;
}

int PatternCodec::RightmostWildcard(PackedKeyView p) const {
  for (int w = num_words_ - 1; w >= 0; --w) {
    const std::uint64_t bits = (layout_[w] & ~p.det[w]) & first_bits_[w];
    if (bits != 0) {
      const int bit = 63 - std::countl_zero(bits);
      return attr_of_bit_[static_cast<std::size_t>(w * 64 + bit)];
    }
  }
  return -1;
}

std::string PatternCodec::ToString(PackedKeyView p) const {
  std::string out;
  out.reserve(static_cast<std::size_t>(num_attributes()));
  for (int attr = 0; attr < num_attributes(); ++attr) {
    const Value v = cell(p, attr);
    if (v == kWildcard) {
      out.push_back('X');
    } else if (v < 36) {
      out.push_back(kDigits[v]);
    } else {
      out.push_back('(');
      out += std::to_string(v);
      out.push_back(')');
    }
  }
  return out;
}

std::string PatternCodec::ToLabelledString(PackedKeyView p,
                                           const Schema& schema) const {
  assert(schema.num_attributes() == num_attributes());
  std::string out;
  for (int attr = 0; attr < num_attributes(); ++attr) {
    const Value v = cell(p, attr);
    if (v == kWildcard) continue;
    if (!out.empty()) out += ", ";
    out += schema.attribute(attr).name;
    out += '=';
    out += schema.attribute(attr).value_names[static_cast<std::size_t>(v)];
  }
  return out.empty() ? "<any>" : out;
}

bool PatternCodec::Less(PackedKeyView a, PackedKeyView b) const {
  for (int attr = 0; attr < num_attributes(); ++attr) {
    const Value va = cell(a, attr);
    const Value vb = cell(b, attr);
    if (va != vb) return va < vb;  // kWildcard == -1 sorts first
  }
  return false;
}

}  // namespace coverage
