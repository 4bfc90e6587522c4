"""AES-128 case study: cipher, IR program, SI library, Fig. 3 pipeline."""

from ...exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "aes": (
        "BLOCK_BYTES encrypt_block expand_key gf_mul KEY_BYTES mix_columns ROUNDS shift_rows "
        "sub_bytes xtime"
    ),
    "blocks": (
        "aes_forecast_report AES_SOFTWARE_CYCLES AESForecastReport build_aes_catalogue "
        "build_aes_library build_aes_program default_aes_fdfs profile_aes"
    ),
})
