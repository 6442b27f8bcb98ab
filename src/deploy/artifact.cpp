#include "deploy/artifact.h"

#include <cmath>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <set>
#include <sstream>

#include "nn/models/mlp.h"
#include "nn/models/resnet20.h"
#include "nn/models/vgg_small.h"
#include "quant/uniform.h"
#include "util/crc32.h"

namespace cq::deploy {

namespace {

constexpr char kMagic[4] = {'C', 'Q', 'A', 'R'};
constexpr std::uint32_t kVersion = 1;

/// Bounds-checked little-endian payload writer/reader. Artifacts are a
/// few megabytes at most, so the whole payload lives in memory and the
/// CRC is computed over it in one pass.
class Writer {
 public:
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void i32(std::int32_t v) { raw(&v, sizeof v); }
  void i64(std::int64_t v) { raw(&v, sizeof v); }
  void f32(float v) { raw(&v, sizeof v); }
  void f64(double v) { raw(&v, sizeof v); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
  }
  void bytes(const std::vector<std::uint8_t>& b) {
    u32(static_cast<std::uint32_t>(b.size()));
    raw(b.data(), b.size());
  }
  void raw(const void* data, std::size_t size) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + size);
  }
  const std::vector<std::uint8_t>& buffer() const { return buf_; }

 private:
  std::vector<std::uint8_t> buf_;
};

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint32_t u32() { return get<std::uint32_t>(); }
  std::int32_t i32() { return get<std::int32_t>(); }
  std::int64_t i64() { return get<std::int64_t>(); }
  float f32() { return get<float>(); }
  double f64() { return get<double>(); }
  std::string str() {
    const std::uint32_t n = u32();
    need(n);
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return s;
  }
  std::vector<std::uint8_t> bytes() {
    const std::uint32_t n = u32();
    need(n);
    std::vector<std::uint8_t> b(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return b;
  }
  void raw(void* out, std::size_t size) {
    need(size);
    std::memcpy(out, data_.data() + pos_, size);
    pos_ += size;
  }
  bool done() const { return pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  template <typename T>
  T get() {
    T v;
    raw(&v, sizeof v);
    return v;
  }
  void need(std::size_t n) {
    if (pos_ + n > data_.size()) {
      throw ArtifactError("artifact payload truncated");
    }
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

void write_tensor(Writer& w, const tensor::Tensor& t) {
  w.u32(static_cast<std::uint32_t>(t.rank()));
  for (std::size_t d = 0; d < t.rank(); ++d) w.u32(static_cast<std::uint32_t>(t.dim(d)));
  w.raw(t.data(), t.numel() * sizeof(float));
}

tensor::Tensor read_tensor(Reader& r) {
  const std::uint32_t rank = r.u32();
  if (rank > 8) throw ArtifactError("artifact tensor rank implausible");
  std::vector<int> dims(rank);
  for (auto& d : dims) {
    const std::uint32_t v = r.u32();
    if (v == 0 || v > (1u << 28)) throw ArtifactError("artifact tensor dim implausible");
    d = static_cast<int>(v);
  }
  // A CRC-valid file can still declare dims whose product wraps size_t
  // or dwarfs the file, so the element count is checked against the
  // payload bytes left before anything is allocated.
  const std::size_t max_count = r.remaining() / sizeof(float);
  std::size_t count = 1;
  for (const int d : dims) {
    if (count > max_count / static_cast<std::size_t>(d)) {
      throw ArtifactError("artifact tensor is larger than the payload left");
    }
    count *= static_cast<std::size_t>(d);
  }
  tensor::Tensor t{tensor::Shape(dims)};
  r.raw(t.data(), count * sizeof(float));
  return t;
}

/// The data pointers of every packed (quantized) weight tensor, used
/// to exclude them from the dense state on both the export and the
/// load side. filter_weights(0) starts at the weight tensor's origin.
std::set<const float*> packed_weight_pointers(nn::Model& model) {
  std::set<const float*> ptrs;
  for (const nn::ScoredLayerRef& ref : model.scored_layers()) {
    for (quant::QuantizableLayer* layer : ref.layers) {
      ptrs.insert(layer->filter_weights(0).data());
    }
  }
  return ptrs;
}

}  // namespace

int ArchDescriptor::int_param(const std::string& key) const {
  return static_cast<int>(std::llround(param(key)));
}

double ArchDescriptor::param(const std::string& key) const {
  const auto it = params.find(key);
  if (it == params.end()) {
    std::string available;
    for (const auto& [name, value] : params) {
      if (!available.empty()) available += ", ";
      available += name;
    }
    if (available.empty()) available = "<none>";
    throw ArtifactError("architecture descriptor '" + kind + "' missing parameter '" +
                        key + "' (available: " + available + ")");
  }
  return it->second;
}

double SizeReport::compression_ratio() const {
  const auto total = static_cast<double>(total_bytes());
  if (total <= 0.0) return 1.0;
  const double fp32 = static_cast<double>(dense_bytes + fp32_weight_bytes + act_quant_bytes);
  return fp32 / total;
}

ArchDescriptor describe_model(nn::Model& model) {
  ArchDescriptor arch;
  if (auto* vgg = dynamic_cast<nn::VggSmall*>(&model)) {
    const nn::VggSmallConfig& c = vgg->config();
    arch.kind = "VggSmall";
    arch.params = {{"in_channels", static_cast<double>(c.in_channels)},
                   {"image_size", static_cast<double>(c.image_size)},
                   {"num_classes", static_cast<double>(c.num_classes)},
                   {"c1", static_cast<double>(c.c1)},
                   {"c2", static_cast<double>(c.c2)},
                   {"c3", static_cast<double>(c.c3)},
                   {"f1", static_cast<double>(c.f1)},
                   {"f2", static_cast<double>(c.f2)},
                   {"f3", static_cast<double>(c.f3)},
                   {"seed", static_cast<double>(c.seed)}};
    return arch;
  }
  if (auto* resnet = dynamic_cast<nn::ResNet20*>(&model)) {
    const nn::ResNet20Config& c = resnet->config();
    arch.kind = "ResNet20";
    arch.params = {{"in_channels", static_cast<double>(c.in_channels)},
                   {"image_size", static_cast<double>(c.image_size)},
                   {"num_classes", static_cast<double>(c.num_classes)},
                   {"base_width", static_cast<double>(c.base_width)},
                   {"expand", static_cast<double>(c.expand)},
                   {"seed", static_cast<double>(c.seed)}};
    return arch;
  }
  if (auto* mlp = dynamic_cast<nn::Mlp*>(&model)) {
    const nn::MlpConfig& c = mlp->config();
    arch.kind = "Mlp";
    arch.params = {{"in_features", static_cast<double>(c.in_features)},
                   {"num_classes", static_cast<double>(c.num_classes)},
                   {"seed", static_cast<double>(c.seed)},
                   {"hidden_count", static_cast<double>(c.hidden.size())}};
    for (std::size_t i = 0; i < c.hidden.size(); ++i) {
      arch.params["hidden" + std::to_string(i)] = static_cast<double>(c.hidden[i]);
    }
    return arch;
  }
  throw ArtifactError("describe_model: unknown model kind '" + model.name() + "'");
}

namespace {

/// What instantiate_model admits from a descriptor, checked before any
/// layer is built so a corrupt or hostile .cqar cannot make it allocate
/// without bound: widths, sizes and counts are integers in [lo,
/// kMaxArchDim], the seed an integer in [0, 2^64), and the model's conv
/// and linear weights, like one sample's activations summed over its
/// layers, at most kMaxArchElements elements.
constexpr int kMaxArchDim = 1 << 20;
constexpr double kMaxArchElements = 1 << 26;

std::string format_value(double v) {
  std::ostringstream out;
  out << std::setprecision(15) << v;
  return out.str();
}

std::string describe_params(const ArchDescriptor& arch) {
  std::string out;
  for (const auto& [name, value] : arch.params) {
    out += (out.empty() ? "" : ", ") + name + "=" + format_value(value);
  }
  return out;
}

int checked_int(const ArchDescriptor& arch, const std::string& key, int lo = 1) {
  const double v = arch.param(key);
  if (!(v >= lo && v <= kMaxArchDim) || v != std::floor(v)) {
    throw ArtifactError("architecture descriptor '" + arch.kind + "' parameter '" + key +
                        "' = " + format_value(v) + " is not an integer in [" +
                        std::to_string(lo) + ", " + std::to_string(kMaxArchDim) + "]");
  }
  return static_cast<int>(v);
}

std::uint64_t checked_seed(const ArchDescriptor& arch) {
  const double v = arch.param("seed");
  if (!(v >= 0.0 && v < 18446744073709551616.0) || v != std::floor(v)) {
    throw ArtifactError("architecture descriptor '" + arch.kind + "' parameter 'seed' = " +
                        format_value(v) + " is not an integer in [0, 2^64)");
  }
  return static_cast<std::uint64_t>(v);
}

void check_budget(const ArchDescriptor& arch, double weights, double activations) {
  for (const auto& [what, elements] : {std::pair{"weights", weights},
                                       std::pair{"per-sample activations", activations}}) {
    if (elements > kMaxArchElements) {
      throw ArtifactError("architecture descriptor '" + arch.kind + "' (" +
                          describe_params(arch) + "): its " + what + " would hold " +
                          format_value(elements) + " elements, past the budget of " +
                          std::to_string(static_cast<std::int64_t>(kMaxArchElements)));
    }
  }
}

}  // namespace

std::unique_ptr<nn::Model> instantiate_model(const ArchDescriptor& arch) {
  if (arch.kind == "VggSmall") {
    nn::VggSmallConfig c;
    c.in_channels = checked_int(arch, "in_channels");
    c.image_size = checked_int(arch, "image_size");
    c.num_classes = checked_int(arch, "num_classes");
    c.c1 = checked_int(arch, "c1");
    c.c2 = checked_int(arch, "c2");
    c.c3 = checked_int(arch, "c3");
    c.f1 = checked_int(arch, "f1");
    c.f2 = checked_int(arch, "f2");
    c.f3 = checked_int(arch, "f3");
    c.seed = checked_seed(arch);
    if (c.image_size % 8 != 0) {
      throw ArtifactError("architecture descriptor 'VggSmall' parameter 'image_size' = " +
                          std::to_string(c.image_size) + " is not a multiple of 8");
    }
    const double in = c.in_channels, c1 = c.c1, c2 = c.c2, c3 = c.c3, f1 = c.f1, f2 = c.f2,
                 f3 = c.f3, classes = c.num_classes, s = c.image_size;
    check_budget(arch,
                 9.0 * (in * c1 + c1 * c1 + c1 * c2 + c2 * c2 + c2 * c3) +
                     c3 * (s / 8) * (s / 8) * f1 + f1 * f2 + f2 * f3 + f3 * classes,
                 s * s * (in + 2.0 * c1) + s * s / 4 * 2.0 * c2 + s * s / 16 * c3 + f1 + f2 +
                     f3 + classes);
    return std::make_unique<nn::VggSmall>(c, nn::StructureOnly{});
  }
  if (arch.kind == "ResNet20") {
    nn::ResNet20Config c;
    c.in_channels = checked_int(arch, "in_channels");
    c.image_size = checked_int(arch, "image_size");
    c.num_classes = checked_int(arch, "num_classes");
    c.base_width = checked_int(arch, "base_width");
    c.expand = checked_int(arch, "expand");
    c.seed = checked_seed(arch);
    // Stage widths w, 2w, 4w at sizes s, s/2, s/4: six 3x3 convs per
    // stage plus the stem, the two 1x1 downsamples and the output layer.
    const double in = c.in_channels, classes = c.num_classes, s = c.image_size,
                 w = static_cast<double>(c.base_width) * c.expand;
    check_budget(arch,
                 9.0 * (in * w + 6.0 * w * w + 24.0 * w * w + 96.0 * w * w) + 10.0 * w * w +
                     4.0 * w * classes,
                 s * s * (in + 7.0 * w) + s * s / 4 * 12.0 * w + s * s / 16 * 24.0 * w + classes);
    return std::make_unique<nn::ResNet20>(c, nn::StructureOnly{});
  }
  if (arch.kind == "Mlp") {
    nn::MlpConfig c;
    c.in_features = checked_int(arch, "in_features");
    c.num_classes = checked_int(arch, "num_classes");
    c.seed = checked_seed(arch);
    const int hidden_count = checked_int(arch, "hidden_count", 0);
    c.hidden.clear();
    double weights = 0.0, activations = c.in_features, in = c.in_features;
    for (int i = 0; i < hidden_count; ++i) {
      c.hidden.push_back(checked_int(arch, "hidden" + std::to_string(i)));
      weights += in * c.hidden.back();
      activations += c.hidden.back();
      in = c.hidden.back();
    }
    check_budget(arch, weights + in * c.num_classes, activations + c.num_classes);
    return std::make_unique<nn::Mlp>(c, nn::StructureOnly{});
  }
  throw ArtifactError("instantiate_model: unknown architecture kind '" + arch.kind + "'");
}

QuantizedArtifact export_model(nn::Model& model) {
  QuantizedArtifact artifact;
  artifact.arch = describe_model(model);

  for (nn::ActQuant* aq : model.activation_quantizers()) {
    artifact.act_quants.push_back({aq->bits(), aq->max_activation()});
  }

  for (const nn::ScoredLayerRef& ref : model.scored_layers()) {
    int idx = 0;
    for (quant::QuantizableLayer* layer : ref.layers) {
      const std::string key =
          ref.layers.size() > 1 ? ref.name + "#" + std::to_string(idx) : ref.name;
      artifact.packed_layers.push_back(pack_layer(*layer, key));
      ++idx;
    }
  }

  const std::set<const float*> packed = packed_weight_pointers(model);
  const auto params = model.parameters();
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (packed.count(params[i]->value.data()) != 0) continue;
    artifact.dense.emplace("p" + std::to_string(i), params[i]->value);
  }
  std::vector<tensor::Tensor*> buffers;
  model.collect_buffers(buffers);
  for (std::size_t i = 0; i < buffers.size(); ++i) {
    artifact.dense.emplace("b" + std::to_string(i), *buffers[i]);
  }
  return artifact;
}

namespace {

/// Refuses a packed layer that cannot fill `layer`: another filter
/// count or row length than the architecture's, or a payload its
/// widths do not describe (so every later row read stays in range).
void check_packed_layer(const PackedLayer& packed, const quant::QuantizableLayer& layer) {
  if (packed.num_filters != layer.num_filters() ||
      packed.weights_per_filter != static_cast<std::int64_t>(layer.weights_per_filter())) {
    throw ArtifactError("artifact packed layer '" + packed.name + "' holds " +
                        std::to_string(packed.num_filters) + " filters of " +
                        std::to_string(packed.weights_per_filter) +
                        " weights; the architecture has " +
                        std::to_string(layer.num_filters()) + " of " +
                        std::to_string(layer.weights_per_filter()));
  }
  if (const std::string why = packed.payload_error(); !why.empty()) {
    throw ArtifactError("artifact packed layer '" + packed.name + "': " + why);
  }
}

}  // namespace

std::unique_ptr<nn::Model> instantiate_unpacked(const QuantizedArtifact& artifact) {
  std::unique_ptr<nn::Model> model = instantiate_model(artifact.arch);

  // Dense state first (skipping the weight tensors that arrive packed;
  // the traversal below mirrors export_model exactly).
  const std::set<const float*> packed = packed_weight_pointers(*model);
  const auto params = model->parameters();
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (packed.count(params[i]->value.data()) != 0) continue;
    const auto it = artifact.dense.find("p" + std::to_string(i));
    if (it == artifact.dense.end()) {
      throw ArtifactError("artifact missing dense parameter p" + std::to_string(i));
    }
    if (it->second.shape() != params[i]->value.shape()) {
      throw ArtifactError("artifact dense parameter p" + std::to_string(i) +
                          " has mismatching shape");
    }
    params[i]->value = it->second;
  }
  std::vector<tensor::Tensor*> buffers;
  model->collect_buffers(buffers);
  for (std::size_t i = 0; i < buffers.size(); ++i) {
    const auto it = artifact.dense.find("b" + std::to_string(i));
    if (it == artifact.dense.end()) {
      throw ArtifactError("artifact missing buffer b" + std::to_string(i));
    }
    if (it->second.shape() != buffers[i]->shape()) {
      throw ArtifactError("artifact buffer b" + std::to_string(i) +
                          " has mismatching shape");
    }
    *buffers[i] = it->second;
  }

  // Packed layers: checked, not unpacked.
  std::size_t next = 0;
  for (const nn::ScoredLayerRef& ref : model->scored_layers()) {
    for (const quant::QuantizableLayer* layer : ref.layers) {
      if (next >= artifact.packed_layers.size()) {
        throw ArtifactError("artifact has fewer packed layers than the architecture");
      }
      check_packed_layer(artifact.packed_layers[next], *layer);
      ++next;
    }
  }
  if (next != artifact.packed_layers.size()) {
    throw ArtifactError("artifact has more packed layers than the architecture");
  }

  // Activation calibration.
  const auto aqs = model->activation_quantizers();
  if (aqs.size() != artifact.act_quants.size()) {
    throw ArtifactError("artifact activation quantizer count mismatch");
  }
  for (std::size_t i = 0; i < aqs.size(); ++i) {
    aqs[i]->set_calibrating(false);
    aqs[i]->set_max_activation(artifact.act_quants[i].max_activation);
    aqs[i]->set_bits(artifact.act_quants[i].bits);
  }

  model->set_training(false);
  return model;
}

std::unique_ptr<nn::Model> instantiate(const QuantizedArtifact& artifact) {
  std::unique_ptr<nn::Model> model = instantiate_unpacked(artifact);
  std::size_t next = 0;
  for (const nn::ScoredLayerRef& ref : model->scored_layers()) {
    for (quant::QuantizableLayer* layer : ref.layers) {
      unpack_layer(artifact.packed_layers[next++], *layer);
    }
  }
  return model;
}

void save_artifact(const std::string& path, const QuantizedArtifact& artifact) {
  Writer payload;
  payload.str(artifact.arch.kind);
  payload.u32(static_cast<std::uint32_t>(artifact.arch.params.size()));
  for (const auto& [key, value] : artifact.arch.params) {
    payload.str(key);
    payload.f64(value);
  }
  payload.u32(static_cast<std::uint32_t>(artifact.act_quants.size()));
  for (const ActQuantState& aq : artifact.act_quants) {
    payload.i32(aq.bits);
    payload.f32(aq.max_activation);
  }
  payload.u32(static_cast<std::uint32_t>(artifact.packed_layers.size()));
  for (const PackedLayer& layer : artifact.packed_layers) {
    payload.str(layer.name);
    payload.i32(layer.num_filters);
    payload.i64(layer.weights_per_filter);
    payload.f32(layer.range_hi);
    payload.bytes(layer.filter_bits);
    payload.bytes(layer.codes);
  }
  payload.u32(static_cast<std::uint32_t>(artifact.dense.size()));
  for (const auto& [key, tensor] : artifact.dense) {
    payload.str(key);
    write_tensor(payload, tensor);
  }

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("save_artifact: cannot open " + path);
  out.write(kMagic, sizeof kMagic);
  const std::uint32_t version = kVersion;
  out.write(reinterpret_cast<const char*>(&version), sizeof version);
  const std::uint64_t size = payload.buffer().size();
  out.write(reinterpret_cast<const char*>(&size), sizeof size);
  out.write(reinterpret_cast<const char*>(payload.buffer().data()),
            static_cast<std::streamsize>(payload.buffer().size()));
  const std::uint32_t crc = util::crc32(payload.buffer().data(), payload.buffer().size());
  out.write(reinterpret_cast<const char*>(&crc), sizeof crc);
  if (!out) throw std::runtime_error("save_artifact: write failed for " + path);
}

QuantizedArtifact load_artifact(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ArtifactError("load_artifact: cannot open " + path);
  std::vector<std::uint8_t> file((std::istreambuf_iterator<char>(in)),
                                 std::istreambuf_iterator<char>());
  constexpr std::size_t header = sizeof kMagic + sizeof(std::uint32_t) + sizeof(std::uint64_t);
  if (file.size() < header + sizeof(std::uint32_t)) {
    throw ArtifactError("load_artifact: file too small to be an artifact");
  }
  if (std::memcmp(file.data(), kMagic, sizeof kMagic) != 0) {
    throw ArtifactError("load_artifact: bad magic (not a CQ artifact)");
  }
  std::uint32_t version = 0;
  std::memcpy(&version, file.data() + sizeof kMagic, sizeof version);
  if (version != kVersion) {
    throw ArtifactError("load_artifact: unsupported artifact version " +
                        std::to_string(version));
  }
  std::uint64_t payload_size = 0;
  std::memcpy(&payload_size, file.data() + sizeof kMagic + sizeof version,
              sizeof payload_size);
  if (header + payload_size + sizeof(std::uint32_t) != file.size()) {
    throw ArtifactError("load_artifact: payload size does not match file size");
  }
  std::uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, file.data() + header + payload_size, sizeof stored_crc);
  const std::uint32_t actual_crc =
      util::crc32(file.data() + header, static_cast<std::size_t>(payload_size));
  if (stored_crc != actual_crc) {
    throw ArtifactError("load_artifact: CRC mismatch — artifact is corrupted");
  }

  Reader r(std::span<const std::uint8_t>(file.data() + header,
                                         static_cast<std::size_t>(payload_size)));
  QuantizedArtifact artifact;
  artifact.arch.kind = r.str();
  const std::uint32_t nparams = r.u32();
  for (std::uint32_t i = 0; i < nparams; ++i) {
    const std::string key = r.str();
    artifact.arch.params[key] = r.f64();
  }
  const std::uint32_t nact = r.u32();
  for (std::uint32_t i = 0; i < nact; ++i) {
    ActQuantState aq;
    aq.bits = r.i32();
    aq.max_activation = r.f32();
    // A quantizer compile_plan encodes with (bits >= 1 and a clip that
    // is not <= 0, NaN included) must be a usable grid; any other is a
    // pass-through whose bits must still lie in [0, 16].
    std::string why;
    if (aq.bits < 0 || aq.bits > 16) {
      why = "bits " + std::to_string(aq.bits) + " outside [0, 16]";
    } else if (aq.bits >= 1 && !(aq.max_activation <= 0.0f)) {
      why = quant::activation_grid_error(aq.bits, aq.max_activation);
    }
    if (!why.empty()) {
      throw ArtifactError("load_artifact: activation quantizer #" + std::to_string(i) + ": " +
                          why);
    }
    artifact.act_quants.push_back(aq);
  }
  const std::uint32_t npacked = r.u32();
  for (std::uint32_t i = 0; i < npacked; ++i) {
    PackedLayer layer;
    layer.name = r.str();
    layer.num_filters = r.i32();
    layer.weights_per_filter = r.i64();
    layer.range_hi = r.f32();
    layer.filter_bits = r.bytes();
    layer.codes = r.bytes();
    // The loader is the boundary that keeps every later row read in
    // range: the payload must be exactly what the stored widths need.
    if (const std::string why = layer.payload_error(); !why.empty()) {
      throw ArtifactError("load_artifact: packed layer '" + layer.name + "': " + why);
    }
    artifact.packed_layers.push_back(std::move(layer));
  }
  const std::uint32_t ndense = r.u32();
  for (std::uint32_t i = 0; i < ndense; ++i) {
    const std::string key = r.str();
    artifact.dense.emplace(key, read_tensor(r));
  }
  if (!r.done()) {
    throw ArtifactError("load_artifact: trailing bytes after payload");
  }
  return artifact;
}

SizeReport size_report(const QuantizedArtifact& artifact) {
  SizeReport report;
  for (const PackedLayer& layer : artifact.packed_layers) {
    report.packed_code_bytes += layer.codes.size();
    report.packed_meta_bytes += layer.filter_bits.size() + sizeof(float);
    report.fp32_weight_bytes += static_cast<std::size_t>(layer.num_filters) *
                                static_cast<std::size_t>(layer.weights_per_filter) *
                                sizeof(float);
  }
  for (const auto& [key, tensor] : artifact.dense) {
    report.dense_bytes += tensor.numel() * sizeof(float);
  }
  report.act_quant_bytes =
      artifact.act_quants.size() * (sizeof(std::int32_t) + sizeof(float));
  return report;
}

}  // namespace cq::deploy
