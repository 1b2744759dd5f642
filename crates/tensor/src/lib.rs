//! Dense `f32` tensor library used throughout the Split-CNN reproduction.
//!
//! This crate is the lowest-level substrate of the workspace: a
//! multi-dimensional array in row-major layout with the operations the
//! neural-network kernels in `scnn-nn` and the split transformation in
//! `scnn-core` need — elementwise arithmetic, 2-D matrix multiplication,
//! spatial padding (including *negative* padding, i.e. cropping, which the
//! paper's footnote 1 requires for out-of-interval split choices), slicing
//! and concatenation along arbitrary dimensions, and `im2col`/`col2im`
//! buffers for convolution.
//!
//! Image tensors follow the NCHW convention: `[batch, channels, height,
//! width]`.
//!
//! The floating-point inner loops dispatch at runtime between portable
//! scalar, AVX2 and (for the two GEMM micro-kernels) AVX-512 bodies with
//! identical reduction order ([`simd`], forced via
//! `SCNN_SIMD=scalar|avx2|avx512|auto`); cache blocking is three
//! fixed constants next to the kernels that read them, of which only
//! [`REDUCTION_KC`] bears on bits. See DESIGN.md §14.
//!
//! # Example
//!
//! ```
//! use scnn_tensor::Tensor;
//!
//! let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let y = x.map(|v| v * 2.0);
//! assert_eq!(y.as_slice(), &[2.0, 4.0, 6.0, 8.0]);
//! ```

mod conv_engine;
mod im2col;
mod init;
mod linalg;
mod pad;
mod shape;
pub mod simd;
mod slice;
mod tensor;
pub mod winograd;

pub use conv_engine::{
    conv2d_dw_single_block, conv2d_dw_tiled, conv2d_dw_tiled_acc, conv2d_dw_tiled_acc_at,
    conv2d_dx_tiled, conv2d_fwd_tiled, conv2d_fwd_tiled_at, conv2d_workspace_bytes,
    micro_batch_aligned, min_micro_batch, ConvAlgo,
};
pub use im2col::{col2im, col2im_cols_into, col2im_into, im2col, im2col_into, Conv2dGeometry};
pub use init::{he_normal, uniform};
pub use linalg::{
    matmul, matmul_a_bt, matmul_a_bt_into, matmul_at_b, matmul_at_b_into, matmul_into,
    REDUCTION_KC,
};
pub use pad::Padding2d;
pub use shape::Shape;
pub use simd::{active_level, detected_level, force_level, supports, SimdLevel};
pub use tensor::Tensor;
pub use winograd::{conv2d_fwd_winograd, winograd_supported};
