//! Offline stand-in for `serde_derive`.
//!
//! The scec crates derive `Serialize`/`Deserialize` on their data types
//! but never call a serde format (the wire codec is hand-rolled in
//! `scec-wire`), so the benchmark build expands both derives to nothing.

use proc_macro::TokenStream;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
