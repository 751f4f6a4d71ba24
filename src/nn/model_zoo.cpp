#include "src/nn/model_zoo.hpp"

#include <array>

namespace compso::nn {

std::size_t ModelShape::total_elements() const noexcept {
  std::size_t n = 0;
  for (const auto& l : layers) n += l.kfac_elements();
  return n;
}

namespace {

void add_conv(ModelShape& m, const std::string& name, std::size_t out_ch,
              std::size_t in_ch, std::size_t k, std::size_t spatial) {
  m.layers.push_back(LayerShape{
      .name = name, .out = out_ch, .in = in_ch * k * k,
      .work_multiplier = spatial});
}

void add_fc(ModelShape& m, const std::string& name, std::size_t out,
            std::size_t in, std::size_t work = 1) {
  m.layers.push_back(
      LayerShape{.name = name, .out = out, .in = in, .work_multiplier = work});
}

void add_embedding(ModelShape& m, const std::string& name, std::size_t out,
                   std::size_t in) {
  m.layers.push_back(LayerShape{
      .name = name, .out = out, .in = in, .work_multiplier = 1,
      .embedding = true});
}

/// ResNet bottleneck stages: {blocks, planes, output feature-map side}.
void add_resnet50_backbone(ModelShape& m, const std::string& prefix) {
  add_conv(m, prefix + "conv1", 64, 3, 7, 112 * 112);
  struct Stage { std::size_t blocks, planes, side; };
  constexpr std::array<Stage, 4> stages{
      {{3, 64, 56}, {4, 128, 28}, {6, 256, 14}, {3, 512, 7}}};
  std::size_t in_ch = 64;
  for (std::size_t s = 0; s < stages.size(); ++s) {
    const auto [blocks, planes, side] = stages[s];
    const std::size_t spatial = side * side;
    for (std::size_t b = 0; b < blocks; ++b) {
      const std::string p =
          prefix + "layer" + std::to_string(s + 1) + "." + std::to_string(b);
      add_conv(m, p + ".conv1", planes, in_ch, 1, spatial);
      add_conv(m, p + ".conv2", planes, planes, 3, spatial);
      add_conv(m, p + ".conv3", planes * 4, planes, 1, spatial);
      if (b == 0) add_conv(m, p + ".downsample", planes * 4, in_ch, 1, spatial);
      in_ch = planes * 4;
    }
  }
}

}  // namespace

ModelShape resnet50_shape() {
  ModelShape m{"ResNet-50", {}};
  add_resnet50_backbone(m, "");
  add_fc(m, "fc", 1000, 2048);
  return m;
}

ModelShape mask_rcnn_shape() {
  // ResNet-50-FPN backbone + RPN + box/mask heads (Detectron2 shapes).
  ModelShape m{"Mask R-CNN", {}};
  add_resnet50_backbone(m, "backbone.");
  // FPN lateral 1x1 + output 3x3 convs over the pyramid levels.
  constexpr std::array<std::size_t, 4> c_outs{256, 512, 1024, 2048};
  constexpr std::array<std::size_t, 4> sides{200, 100, 50, 25};
  for (std::size_t i = 0; i < c_outs.size(); ++i) {
    add_conv(m, "fpn.lateral" + std::to_string(i), 256, c_outs[i], 1,
             sides[i] * sides[i]);
    add_conv(m, "fpn.output" + std::to_string(i), 256, 256, 3,
             sides[i] * sides[i]);
  }
  // RPN (runs over every pyramid level; fold into one spatial factor).
  add_conv(m, "rpn.conv", 256, 256, 3, 200 * 200);
  add_conv(m, "rpn.objectness", 3, 256, 1, 200 * 200);
  add_conv(m, "rpn.anchor_deltas", 12, 256, 1, 200 * 200);
  // Box head over ~512 proposals of 7x7x256 each.
  add_fc(m, "box_head.fc1", 1024, 256 * 7 * 7, 512);
  add_fc(m, "box_head.fc2", 1024, 1024, 512);
  add_fc(m, "box_predictor.cls", 81, 1024, 512);
  add_fc(m, "box_predictor.bbox", 320, 1024, 512);
  // Mask head over ~100 detections of 14x14 maps.
  for (int i = 0; i < 4; ++i) {
    add_conv(m, "mask_head.conv" + std::to_string(i), 256, 256, 3,
             100 * 14 * 14);
  }
  add_conv(m, "mask_head.deconv", 256, 256, 2, 100 * 28 * 28);
  add_conv(m, "mask_head.predictor", 80, 256, 1, 100 * 28 * 28);
  return m;
}

ModelShape bert_large_shape() {
  ModelShape m{"BERT-large", {}};
  constexpr std::size_t h = 1024, ffn = 4096, layers = 24, vocab = 30522;
  constexpr std::size_t seq = 512;
  add_embedding(m, "embeddings.word", h, vocab);
  add_embedding(m, "embeddings.position", h, 512);
  add_embedding(m, "embeddings.token_type", h, 2);
  for (std::size_t l = 0; l < layers; ++l) {
    const std::string p = "encoder.layer" + std::to_string(l);
    add_fc(m, p + ".attn.q", h, h, seq);
    add_fc(m, p + ".attn.k", h, h, seq);
    add_fc(m, p + ".attn.v", h, h, seq);
    add_fc(m, p + ".attn.out", h, h, seq);
    add_fc(m, p + ".ffn.up", ffn, h, seq);
    add_fc(m, p + ".ffn.down", h, ffn, seq);
  }
  add_fc(m, "pooler", h, h);
  return m;
}

ModelShape gpt_neo_125m_shape() {
  ModelShape m{"GPT-neo-125M", {}};
  constexpr std::size_t h = 768, ffn = 3072, layers = 12, vocab = 50257;
  constexpr std::size_t seq = 2048;
  add_embedding(m, "wte", h, vocab);
  add_embedding(m, "wpe", h, 2048);
  for (std::size_t l = 0; l < layers; ++l) {
    std::string p = "h";
    p += std::to_string(l);
    add_fc(m, p + ".attn.q", h, h, seq);
    add_fc(m, p + ".attn.k", h, h, seq);
    add_fc(m, p + ".attn.v", h, h, seq);
    add_fc(m, p + ".attn.out", h, h, seq);
    add_fc(m, p + ".mlp.up", ffn, h, seq);
    add_fc(m, p + ".mlp.down", h, ffn, seq);
  }
  return m;
}

std::vector<ModelShape> paper_model_shapes() {
  return {resnet50_shape(), mask_rcnn_shape(), bert_large_shape(),
          gpt_neo_125m_shape()};
}

Model make_mlp_classifier(std::size_t features, std::size_t hidden,
                          std::size_t classes, std::size_t depth,
                          tensor::Rng& rng) {
  Model m;
  std::size_t in = features;
  for (std::size_t d = 0; d < depth; ++d) {
    m.add(std::make_unique<Linear>(in, hidden, rng,
                                   "fc" + std::to_string(d)));
    m.add(std::make_unique<Relu>());
    in = hidden;
  }
  m.add(std::make_unique<Linear>(in, classes, rng, "head"));
  return m;
}

Model make_span_model(std::size_t features, std::size_t hidden,
                      std::size_t positions, std::size_t depth,
                      tensor::Rng& rng) {
  Model m;
  std::size_t in = features;
  for (std::size_t d = 0; d < depth; ++d) {
    m.add(std::make_unique<Linear>(in, hidden, rng,
                                   "trunk" + std::to_string(d)));
    m.add(std::make_unique<Tanh>());
    in = hidden;
  }
  m.add(std::make_unique<Linear>(in, 2 * positions, rng, "span_head"));
  return m;
}

}  // namespace compso::nn
