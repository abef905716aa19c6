//! Feature preprocessing: the operators that appear in the paper's pipeline
//! sketch (`ColumnTransformer`, `Imputer`, `OneHotEncoder`,
//! `SentenceBertTransformer`) re-implemented natively.

pub mod encoder;
pub mod imputer;
pub mod onehot;
pub mod scaler;
pub mod text;

pub use encoder::{ColumnSpec, FittedTableEncoder, TableEncoder};
pub use imputer::{ImputeStrategy, Imputer};
pub use onehot::OneHotEncoder;
pub use scaler::{MinMaxScaler, StandardScaler};
pub use text::SentenceEmbedder;
