#include "heap/klass.hh"

#include "sim/logging.hh"

namespace cereal {

unsigned
fieldTypeBytes(FieldType t)
{
    switch (t) {
      case FieldType::Boolean:
      case FieldType::Byte:
        return 1;
      case FieldType::Char:
      case FieldType::Short:
        return 2;
      case FieldType::Int:
      case FieldType::Float:
        return 4;
      case FieldType::Long:
      case FieldType::Double:
      case FieldType::Reference:
        return 8;
    }
    panic("bad field type %d", static_cast<int>(t));
}

const char *
fieldTypeName(FieldType t)
{
    switch (t) {
      case FieldType::Boolean: return "boolean";
      case FieldType::Byte: return "byte";
      case FieldType::Char: return "char";
      case FieldType::Short: return "short";
      case FieldType::Int: return "int";
      case FieldType::Long: return "long";
      case FieldType::Float: return "float";
      case FieldType::Double: return "double";
      case FieldType::Reference: return "reference";
    }
    return "?";
}

KlassDescriptor::KlassDescriptor(std::string name,
                                 std::vector<FieldDesc> fields)
    : name_(std::move(name)), fields_(std::move(fields))
{
    for (std::uint32_t i = 0; i < fields_.size(); ++i) {
        if (fields_[i].type == FieldType::Reference) {
            refFields_.push_back(i);
        }
    }
}

KlassDescriptor
KlassDescriptor::makeArray(std::string name, FieldType elem)
{
    KlassDescriptor d;
    d.name_ = std::move(name);
    d.isArray_ = true;
    d.elemType_ = elem;
    return d;
}

KlassRegistry::KlassRegistry(bool cereal_header_ext, Addr metadata_base)
    : headerSlots_(cereal_header_ext ? 3 : 2),
      metadataTop_(metadata_base),
      slotBase_(roundDown(metadata_base, 64))
{
    // The smallest object is an instance with no fields: its header.
    panic_if(Addr{headerSlots_} * 8 < kMinObjectBytes,
             "a %u-slot header is below the %llu B minimum object",
             headerSlots_, (unsigned long long)kMinObjectBytes);
}

KlassId
KlassRegistry::add(KlassDescriptor desc)
{
    fatal_if(byName_.count(desc.name()),
             "class '%s' registered twice", desc.name().c_str());

    std::vector<std::uint64_t> bitmap;
    Addr bitmap_words = 1;
    if (!desc.isArray()) {
        // Build the per-instance layout bitmap: header slots are values,
        // then one bit per field.
        const std::size_t slots = headerSlots_ + desc.numFields();
        bitmap_words = (slots + 63) / 64;
        bitmap.assign(bitmap_words, 0);
        for (std::size_t f = 0; f < desc.numFields(); ++f) {
            if (desc.fields()[f].type == FieldType::Reference) {
                const std::size_t s = headerSlots_ + f;
                bitmap[s / 64] |= std::uint64_t{1} << (s % 64);
            }
        }
    }

    // Metadata block: 8 B of size/kind info plus the packed bitmap words
    // (arrays get a fixed 16 B block: kind + element type).
    Addr meta_bytes = 8 + bitmap_words * 8;
    Addr meta_addr = metadataTop_;
    metadataTop_ = roundUp(metadataTop_ + meta_bytes, 64);

    KlassId id = static_cast<KlassId>(descs_.size());
    byName_.emplace(desc.name(), id);
    bySlot_.resize((metadataTop_ - slotBase_) / 64, kBadKlassId);
    bySlot_[(meta_addr - slotBase_) / 64] = id;
    descs_.push_back(Record{std::move(desc), std::move(bitmap), meta_addr,
                            meta_bytes});
    return id;
}

KlassId
KlassRegistry::arrayKlass(FieldType elem)
{
    auto key = static_cast<std::uint8_t>(elem);
    auto it = arrayKlasses_.find(key);
    if (it != arrayKlasses_.end()) {
        return it->second;
    }
    std::string name = std::string(fieldTypeName(elem)) + "[]";
    KlassId id = add(KlassDescriptor::makeArray(std::move(name), elem));
    arrayKlasses_.emplace(key, id);
    return id;
}

const KlassDescriptor &
KlassRegistry::klass(KlassId id) const
{
    panic_if(id >= descs_.size(), "bad klass id %u", id);
    return descs_[id].desc;
}

KlassId
KlassRegistry::idByName(const std::string &name) const
{
    auto it = byName_.find(name);
    return it == byName_.end() ? kBadKlassId : it->second;
}

unsigned
KlassRegistry::instanceSlots(KlassId id) const
{
    const auto &d = klass(id);
    panic_if(d.isArray(), "instanceSlots() on array class %s",
             d.name().c_str());
    return headerSlots_ + static_cast<unsigned>(d.numFields());
}

unsigned
KlassRegistry::arraySlots(KlassId id, std::uint64_t n) const
{
    const auto &d = klass(id);
    panic_if(!d.isArray(), "arraySlots() on non-array class %s",
             d.name().c_str());
    const Addr data_bytes = n * fieldTypeBytes(d.elemType());
    return headerSlots_ + 1 +
           static_cast<unsigned>((data_bytes + 7) / 8);
}

SlotBitmap
KlassRegistry::layoutBitmap(KlassId id) const
{
    panic_if(id >= descs_.size(), "bad klass id %u", id);
    const Record &r = descs_[id];
    panic_if(r.desc.isArray(),
             "static layoutBitmap() on array class; array bitmaps depend "
             "on instance length");
    return SlotBitmap(r.bitmap.data(), headerSlots_ + r.desc.numFields());
}

Addr
KlassRegistry::metadataAddr(KlassId id) const
{
    panic_if(id >= descs_.size(), "bad klass id %u", id);
    return descs_[id].metaAddr;
}

Addr
KlassRegistry::metadataBytes(KlassId id) const
{
    panic_if(id >= descs_.size(), "bad klass id %u", id);
    return descs_[id].metaBytes;
}

} // namespace cereal
