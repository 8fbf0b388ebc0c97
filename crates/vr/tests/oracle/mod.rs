//! The renderer as it stood before the two eye passes ran concurrently:
//! `Vec<Rgb>` colour, one `Framebuffer` walked left eye → Z clear → right
//! eye on one thread, `windows(2)` projecting every interior point twice,
//! and a DDA that walks every sample of a segment, on screen or not. Kept
//! verbatim (only the type is renamed) as the oracle the new path must
//! match bit for bit: `vr/tests/render_equiv.rs` and
//! `windtunnel/tests/render_equiv.rs` compare against it.

#![allow(dead_code)]

use vecmath::{Mat4, Vec3};
use vr::stereo::{Eye, StereoCamera};
use vr::{ColorMask, Framebuffer, Rgb};

pub struct OracleFb {
    width: usize,
    height: usize,
    color: Vec<Rgb>,
    depth: Vec<f32>,
    mask: ColorMask,
}

impl OracleFb {
    pub fn new(width: usize, height: usize) -> OracleFb {
        OracleFb {
            width,
            height,
            color: vec![Rgb::BLACK; width * height],
            depth: vec![f32::INFINITY; width * height],
            mask: ColorMask::ALL,
        }
    }

    pub fn set_mask(&mut self, mask: ColorMask) {
        self.mask = mask;
    }

    pub fn mask(&self) -> ColorMask {
        self.mask
    }

    pub fn clear(&mut self, color: Rgb) {
        for i in 0..self.color.len() {
            self.write_pixel_unchecked(i, color);
        }
        self.clear_depth();
    }

    pub fn clear_depth(&mut self) {
        self.depth.fill(f32::INFINITY);
    }

    #[inline]
    fn write_pixel_unchecked(&mut self, idx: usize, c: Rgb) {
        let px = &mut self.color[idx];
        if self.mask.r {
            px.r = c.r;
        }
        if self.mask.g {
            px.g = c.g;
        }
        if self.mask.b {
            px.b = c.b;
        }
    }

    pub fn set_pixel(&mut self, x: i32, y: i32, z: f32, c: Rgb) {
        if x < 0 || y < 0 || x >= self.width as i32 || y >= self.height as i32 {
            return;
        }
        let idx = y as usize * self.width + x as usize;
        if z <= self.depth[idx] {
            self.depth[idx] = z;
            self.write_pixel_unchecked(idx, c);
        }
    }

    pub fn depth_at(&self, x: usize, y: usize) -> f32 {
        self.depth[y * self.width + x]
    }

    /// Every Z value's bit pattern, row-major.
    pub fn depth_bits(&self) -> Vec<u32> {
        self.depth.iter().map(|z| z.to_bits()).collect()
    }

    pub fn rgb_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.color.len() * 3);
        for px in &self.color {
            out.push(px.r);
            out.push(px.g);
            out.push(px.b);
        }
        out
    }

    pub fn draw_line_screen(&mut self, a: (f32, f32, f32), b: (f32, f32, f32), c: Rgb) {
        let dx = b.0 - a.0;
        let dy = b.1 - a.1;
        let steps = dx.abs().max(dy.abs()).ceil() as i32;
        if steps == 0 {
            self.set_pixel(a.0.round() as i32, a.1.round() as i32, a.2, c);
            return;
        }
        for s in 0..=steps {
            let t = s as f32 / steps as f32;
            let x = a.0 + dx * t;
            let y = a.1 + dy * t;
            let z = a.2 + (b.2 - a.2) * t;
            self.set_pixel(x.round() as i32, y.round() as i32, z, c);
        }
    }

    pub fn project(&self, mvp: &Mat4, p: Vec3) -> Option<(f32, f32, f32)> {
        let h = mvp.transform_point_h(p);
        if h[3] <= 1.0e-6 {
            return None;
        }
        let ndc_x = h[0] / h[3];
        let ndc_y = h[1] / h[3];
        let ndc_z = h[2] / h[3];
        Some((
            (ndc_x * 0.5 + 0.5) * (self.width as f32 - 1.0),
            (0.5 - ndc_y * 0.5) * (self.height as f32 - 1.0), // y down
            ndc_z,
        ))
    }

    pub fn draw_polyline(&mut self, mvp: &Mat4, points: &[Vec3], color: Rgb) {
        for w in points.windows(2) {
            if let (Some(a), Some(b)) = (self.project(mvp, w[0]), self.project(mvp, w[1])) {
                self.draw_line_screen(a, b, color);
            }
        }
    }
}

/// Every Z value's bit pattern of the renderer under test, row-major, to
/// compare with [`OracleFb::depth_bits`].
pub fn depth_bits(fb: &Framebuffer) -> Vec<u32> {
    let (w, h) = (fb.width(), fb.height());
    (0..w * h)
        .map(|i| fb.depth_at(i % w, i / w).to_bits())
        .collect()
}

pub fn render_anaglyph(fb: &mut OracleFb, camera: &StereoCamera, polylines: &[(Vec<Vec3>, u8)]) {
    // Left eye: red only.
    fb.set_mask(ColorMask::RED_ONLY);
    let mvp_l = camera.mvp(Eye::Left);
    for (line, shade) in polylines {
        fb.draw_polyline(&mvp_l, line, Rgb::red(*shade));
    }
    // "The Z-buffer bit planes are cleared between the drawing of the
    // left- and right-eye images, but the color (red) bit planes are
    // not."
    fb.clear_depth();
    // Right eye: blue behind the red-protecting writemask.
    fb.set_mask(ColorMask::PROTECT_RED);
    let mvp_r = camera.mvp(Eye::Right);
    for (line, shade) in polylines {
        fb.draw_polyline(&mvp_r, line, Rgb::blue(*shade));
    }
    fb.set_mask(ColorMask::ALL);
}
