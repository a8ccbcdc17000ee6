//! Text building without the formatting machinery, for the strings the
//! obs pipeline writes once per span: span labels and the Chrome export.

use std::fmt;

/// `v` in decimal, as `u64::to_string` prints it, in the tail of `digits`.
fn uint_text(digits: &mut [u8; 20], mut v: u64) -> &str {
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    std::str::from_utf8(&digits[at..]).expect("ASCII digits")
}

/// Appends `v` in decimal, as `u64::to_string` prints it.
pub(crate) fn push_uint(out: &mut String, v: u64) {
    out.push_str(uint_text(&mut [0; 20], v));
}

/// Writes an id as its `Display` prints it: `prefix`, then `index` in
/// decimal.
pub(crate) fn write_id(out: &mut impl fmt::Write, prefix: &str, index: usize) -> fmt::Result {
    out.write_str(prefix)?;
    out.write_str(uint_text(&mut [0; 20], index as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasflow_sim::FunctionId;

    #[test]
    fn digits_and_ids_print_as_display_does() {
        for v in [0, 7, 10, 99, 12_345, u64::from(u32::MAX), u64::MAX] {
            let mut out = String::new();
            push_uint(&mut out, v);
            assert_eq!(out, v.to_string());
        }
        for index in [0, 3, 41] {
            let f = FunctionId::new(index);
            let mut out = String::new();
            write_id(&mut out, FunctionId::PREFIX, f.index()).expect("strings accept any text");
            assert_eq!(out, f.to_string());
        }
    }
}
