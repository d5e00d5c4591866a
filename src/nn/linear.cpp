#include "nn/linear.h"

#include "util/error.h"

namespace desmine::nn {

Linear::Linear(std::string name, std::size_t in, std::size_t out,
               util::Rng& rng, bool with_bias, float init_scale,
               WeightStorage storage)
    : weight_(name + ".W", in, out, storage),
      bias_(name + ".b", 1, out, storage),
      with_bias_(with_bias) {
  DESMINE_EXPECTS(in > 0 && out > 0, "linear dims must be > 0");
  if (storage == WeightStorage::kOwned) {
    weight_.value.init_uniform(rng, init_scale);
  }
}

tensor::Matrix Linear::forward(const tensor::Matrix& x) const {
  tensor::Matrix y(x.rows(), out_dim());
  forward_into(x, y);
  return y;
}

void Linear::forward_into(tensor::ConstMatrixView x,
                          tensor::MatrixView y) const {
  DESMINE_EXPECTS(x.cols() == in_dim(), "linear input dim mismatch");
  DESMINE_EXPECTS(y.rows() == x.rows() && y.cols() == out_dim(),
                  "linear output shape");
  tensor::gemm(tensor::Transpose::kNo, tensor::Transpose::kNo, 1.0f, x,
               weight_.view(), 0.0f, y);
  if (with_bias_) tensor::add_row_bias(y, bias_.view());
}

tensor::Matrix Linear::backward(const tensor::Matrix& x,
                                const tensor::Matrix& grad_out) {
  tensor::Matrix grad_in(x.rows(), in_dim());
  backward_into(x, grad_out, grad_in);
  return grad_in;
}

void Linear::backward_into(tensor::ConstMatrixView x,
                           tensor::ConstMatrixView grad_out,
                           tensor::MatrixView grad_in) {
  DESMINE_EXPECTS(grad_out.rows() == x.rows() && grad_out.cols() == out_dim(),
                  "linear backward shape");
  DESMINE_EXPECTS(grad_in.rows() == x.rows() && grad_in.cols() == in_dim(),
                  "linear backward grad_in shape");
  // dW += x^T * dy
  tensor::gemm(tensor::Transpose::kTrans, tensor::Transpose::kNo, 1.0f, x,
               grad_out, 1.0f, weight_.grad);
  if (with_bias_) {
    float* bg = bias_.grad.row(0);
    for (std::size_t r = 0; r < grad_out.rows(); ++r) {
      const float* g = grad_out.row(r);
      for (std::size_t c = 0; c < out_dim(); ++c) bg[c] += g[c];
    }
  }
  // dx = dy * W^T (grad_in is overwritten, like the fresh matrix the owning
  // overload allocates)
  tensor::gemm(tensor::Transpose::kNo, tensor::Transpose::kTrans, 1.0f,
               grad_out, weight_.view(), 0.0f, grad_in);
}

}  // namespace desmine::nn
