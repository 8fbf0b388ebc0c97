//! Software line/point rasterizer with Z-buffer and channel writemask.
//!
//! §3 describes the stereo trick precisely: "rendering the left eye image
//! using only shades of pure red (of which 256 are available) and the
//! right eye image using only shades of pure blue. When the blue (second,
//! right-eye) image is drawn, it is drawn using a 'writemask' that
//! protects the bits of the red image. The Z-buffer bit planes are cleared
//! between the drawing of the left- and right-eye images, but the color
//! (red) bit planes are not cleared. Thus, the end result is separately
//! Z-buffered left- and right-eye images, in red and blue respectively, on
//! the screen at the same time."
//!
//! [`Framebuffer`] implements exactly that: per-channel writemask, Z
//! clear independent of color clear, DDA lines with depth interpolation.

use crate::stereo::{Eye, StereoCamera};
use vecmath::{Mat4, Vec3};

/// 8-bit RGB color.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rgb {
    pub r: u8,
    pub g: u8,
    pub b: u8,
}

impl Rgb {
    pub const BLACK: Rgb = Rgb { r: 0, g: 0, b: 0 };
    pub const WHITE: Rgb = Rgb {
        r: 255,
        g: 255,
        b: 255,
    };

    pub const fn new(r: u8, g: u8, b: u8) -> Rgb {
        Rgb { r, g, b }
    }

    /// A pure-red shade (left eye).
    pub const fn red(shade: u8) -> Rgb {
        Rgb {
            r: shade,
            g: 0,
            b: 0,
        }
    }

    /// A pure-blue shade (right eye).
    pub const fn blue(shade: u8) -> Rgb {
        Rgb {
            r: 0,
            g: 0,
            b: shade,
        }
    }
}

/// Which color channels the rasterizer may write — the IRIS GL writemask.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColorMask {
    pub r: bool,
    pub g: bool,
    pub b: bool,
}

impl ColorMask {
    pub const ALL: ColorMask = ColorMask {
        r: true,
        g: true,
        b: true,
    };
    /// Left-eye pass: may write red only.
    pub const RED_ONLY: ColorMask = ColorMask {
        r: true,
        g: false,
        b: false,
    };
    /// Right-eye pass: may write green+blue only — "protects the bits of
    /// the red image".
    pub const PROTECT_RED: ColorMask = ColorMask {
        r: false,
        g: true,
        b: true,
    };
}

/// Pixels `lo..hi` a buffer may differ in from its last fill (none if lo ≥ hi).
#[derive(Debug, Clone, Copy)]
struct Span(usize, usize);

impl Span {
    const EMPTY: Span = Span(usize::MAX, 0);

    fn union(self, other: Span) -> Span {
        Span(self.0.min(other.0), self.1.max(other.1))
    }

    fn fill<T: Copy>(self, buf: &mut [T], v: T) {
        if let Some(run) = buf.get_mut(self.0..self.1) {
            run.fill(v);
        }
    }
}

/// A Z buffer, +∞ outside `dirty`.
struct Depth {
    z: Vec<f32>,
    dirty: Span,
}

impl Depth {
    const EMPTY: Depth = Depth {
        z: Vec::new(),
        dirty: Span::EMPTY,
    };

    /// +∞ at all `len` pixels, rewriting only the span drawn since the last.
    fn reset(&mut self, len: usize) {
        self.z.resize(len, f32::INFINITY);
        self.dirty.fill(&mut self.z, f32::INFINITY);
        self.dirty = Span::EMPTY;
    }
}

/// RGB framebuffer with f32 Z-buffer (smaller z = nearer; z is the NDC
/// depth in [-1, 1] after projection). Colour is three planes, so the two
/// eye passes of [`render_anaglyph`] own disjoint bits.
///
/// A clear costs what was drawn, not the screen: the planes the last
/// `clear` filled hold its colour outside `color_dirty`, and each Z buffer
/// holds +∞ outside its own span.
pub struct Framebuffer {
    width: usize,
    height: usize,
    r: Vec<u8>,
    g: Vec<u8>,
    b: Vec<u8>,
    /// The last clear's colour and mask.
    cleared: (Rgb, ColorMask),
    color_dirty: Span,
    depth: Depth,
    /// The right eye's Z while it draws; then the left eye's, for reuse.
    spare_depth: Depth,
    mask: ColorMask,
}

impl Framebuffer {
    pub fn new(width: usize, height: usize) -> Framebuffer {
        Framebuffer {
            width,
            height,
            r: vec![0; width * height],
            g: vec![0; width * height],
            b: vec![0; width * height],
            cleared: (Rgb::BLACK, ColorMask::ALL),
            color_dirty: Span::EMPTY,
            depth: Depth {
                z: vec![f32::INFINITY; width * height],
                dirty: Span::EMPTY,
            },
            spare_depth: Depth::EMPTY,
            mask: ColorMask::ALL,
        }
    }

    pub fn width(&self) -> usize {
        self.width
    }

    pub fn height(&self) -> usize {
        self.height
    }

    pub fn set_mask(&mut self, mask: ColorMask) {
        self.mask = mask;
    }

    pub fn mask(&self) -> ColorMask {
        self.mask
    }

    /// Clear color planes (honours the writemask, like the hardware) and
    /// the Z-buffer.
    pub fn clear(&mut self, color: Rgb) {
        let len = self.width * self.height;
        let region = if self.cleared == (color, self.mask) {
            self.color_dirty
        } else {
            Span(0, len)
        };
        self.cleared = (color, self.mask);
        self.color_dirty = Span::EMPTY;
        self.draw(|t| {
            for (plane, v) in t.planes.iter_mut().zip([color.r, color.g, color.b]) {
                if let Some(plane) = plane {
                    region.fill(plane, v);
                }
            }
        });
        self.depth.reset(len);
    }

    /// Clear only the Z planes — the between-eyes step of §3.
    pub fn clear_depth(&mut self) {
        self.depth.reset(self.width * self.height);
    }

    /// Runs `draw` on the whole framebuffer under the current mask, and
    /// marks what it wrote.
    fn draw(&mut self, draw: impl FnOnce(&mut Target)) {
        let m = self.mask;
        let planes = [(m.r, &mut self.r), (m.g, &mut self.g), (m.b, &mut self.b)];
        let planes = planes.map(|(on, plane)| on.then_some(&mut plane[..]));
        let mut target = Target::new(self.width, self.height, &mut self.depth.z, planes);
        draw(&mut target);
        let written = target.written;
        self.color_dirty = self.color_dirty.union(written);
        self.depth.dirty = self.depth.dirty.union(written);
    }

    /// Depth-tested, masked pixel write.
    pub fn set_pixel(&mut self, x: i32, y: i32, z: f32, c: Rgb) {
        self.draw(|t| {
            t.sample((x, y, z), c);
            t.end_run(c);
        });
    }

    pub fn pixel(&self, x: usize, y: usize) -> Rgb {
        let i = y * self.width + x;
        Rgb::new(self.r[i], self.g[i], self.b[i])
    }

    pub fn depth_at(&self, x: usize, y: usize) -> f32 {
        self.depth.z[y * self.width + x]
    }

    fn colors(&self) -> impl Iterator<Item = Rgb> + '_ {
        let rgb = self.r.iter().zip(&self.g).zip(&self.b);
        rgb.map(|((&r, &g), &b)| Rgb { r, g, b })
    }

    /// Raw RGB bytes, row-major top-to-bottom (PPM order).
    pub fn rgb_bytes(&self) -> Vec<u8> {
        self.colors().flat_map(|c| [c.r, c.g, c.b]).collect()
    }

    /// Count pixels for which `pred` holds — test/diagnostic helper.
    pub fn count_pixels(&self, pred: impl Fn(Rgb) -> bool) -> usize {
        self.colors().filter(|&c| pred(c)).count()
    }

    /// Draw a depth-tested line between two screen-space points
    /// (x, y in pixels, z in NDC depth) with DDA interpolation.
    pub fn draw_line_screen(&mut self, a: (f32, f32, f32), b: (f32, f32, f32), c: Rgb) {
        self.draw(|t| {
            t.line(a, b, c);
            t.end_run(c);
        });
    }

    /// Project a world-space point through `mvp` into (pixel x, pixel y,
    /// ndc z); `None` when behind the near plane (w ≤ ε).
    pub fn project(&self, mvp: &Mat4, p: Vec3) -> Option<(f32, f32, f32)> {
        let [x, y, z, w] = project_h(self.width, self.height, mvp, p);
        in_front(w).then_some((x, y, z))
    }

    /// Draw a world-space polyline through an MVP matrix. Segments with an
    /// endpoint behind the eye are dropped (simple near-plane policy —
    /// adequate for path geometry that lives inside the scene).
    pub fn draw_polyline(&mut self, mvp: &Mat4, points: &[Vec3], color: Rgb) {
        self.draw(|t| t.polyline(mvp, points, color));
    }

    /// Fill a screen-space triangle with Z interpolation (barycentric
    /// scanline). Inputs are (pixel x, pixel y, ndc z).
    pub fn fill_triangle_screen(
        &mut self,
        a: (f32, f32, f32),
        b: (f32, f32, f32),
        c: (f32, f32, f32),
        color: Rgb,
    ) {
        let min_x = a.0.min(b.0).min(c.0).floor().max(0.0) as i32;
        let max_x = a.0.max(b.0).max(c.0).ceil().min(self.width as f32 - 1.0) as i32;
        let min_y = a.1.min(b.1).min(c.1).floor().max(0.0) as i32;
        let max_y = a.1.max(b.1).max(c.1).ceil().min(self.height as f32 - 1.0) as i32;
        if min_x > max_x || min_y > max_y {
            return;
        }
        let area = (b.0 - a.0) * (c.1 - a.1) - (b.1 - a.1) * (c.0 - a.0);
        if area.abs() < 1.0e-6 {
            // Degenerate: fall back to its edges.
            self.draw_line_screen(a, b, color);
            self.draw_line_screen(b, c, color);
            return;
        }
        let inv_area = 1.0 / area;
        for y in min_y..=max_y {
            for x in min_x..=max_x {
                let px = x as f32 + 0.5;
                let py = y as f32 + 0.5;
                // Barycentric coordinates (signed, normalized by the
                // triangle area so either winding works).
                let w0 = ((b.0 - px) * (c.1 - py) - (b.1 - py) * (c.0 - px)) * inv_area;
                let w1 = ((c.0 - px) * (a.1 - py) - (c.1 - py) * (a.0 - px)) * inv_area;
                let w2 = 1.0 - w0 - w1;
                if w0 >= 0.0 && w1 >= 0.0 && w2 >= 0.0 {
                    let z = w0 * a.2 + w1 * b.2 + w2 * c.2;
                    self.set_pixel(x, y, z, color);
                }
            }
        }
    }

    /// Draw world-space triangles with flat depth shading (nearer =
    /// brighter). Triangles with any vertex behind the eye are dropped —
    /// adequate for iso-geometry inside the scene.
    pub fn draw_triangles(&mut self, mvp: &Mat4, tris: &[[Vec3; 3]], base: Rgb) {
        for t in tris {
            let p: Vec<_> = t.iter().filter_map(|&v| self.project(mvp, v)).collect();
            if p.len() < 3 {
                continue;
            }
            // ndc z in [-1, 1] → shade factor [1, 0.35].
            let zavg = (p[0].2 + p[1].2 + p[2].2) / 3.0;
            let f = (1.0 - 0.325 * (zavg + 1.0)).clamp(0.2, 1.0);
            let c = Rgb::new(
                (base.r as f32 * f) as u8,
                (base.g as f32 * f) as u8,
                (base.b as f32 * f) as u8,
            );
            self.fill_triangle_screen(p[0], p[1], p[2], c);
        }
    }
}

/// Render a scene of polylines in the paper's red/blue two-channel
/// stereo: left eye in red shades, Z cleared, right eye in blue behind a
/// writemask protecting the red planes. `shade` is applied to both eyes.
/// The left eye owns red and the caller's Z, the right eye green, blue and
/// a fresh +∞ Z, kept afterwards: sharing no bits, they are drawn on two
/// threads, bit-identical to one after the other. Ends at mask `ALL`.
pub fn render_anaglyph<L: AsRef<[Vec3]> + Sync>(
    fb: &mut Framebuffer,
    camera: &StereoCamera,
    polylines: &[(L, u8)],
) {
    let mut right_depth = std::mem::replace(&mut fb.spare_depth, Depth::EMPTY);
    let eye = |depth, planes, eye, color: fn(u8) -> Rgb| {
        let mut target = Target::new(fb.width, fb.height, depth, planes);
        let mvp = camera.mvp(eye);
        for (line, shade) in polylines {
            target.polyline(&mvp, line.as_ref(), color(*shade));
        }
        target.written
    };
    let left_written = std::thread::scope(|s| {
        s.spawn(|| {
            right_depth.reset(fb.width * fb.height);
            let planes = [None, Some(&mut fb.g[..]), Some(&mut fb.b[..])];
            right_depth.dirty = eye(&mut right_depth.z[..], planes, Eye::Right, Rgb::blue);
        });
        let planes = [Some(&mut fb.r[..]), None, None];
        eye(&mut fb.depth.z[..], planes, Eye::Left, Rgb::red)
    });
    fb.color_dirty = fb.color_dirty.union(left_written).union(right_depth.dirty);
    fb.depth.dirty = fb.depth.dirty.union(left_written);
    fb.spare_depth = std::mem::replace(&mut fb.depth, right_depth);
    fb.mask = ColorMask::ALL;
}

/// `p` through `mvp` to (pixel x, pixel y, ndc z, clip w).
fn project_h(width: usize, height: usize, mvp: &Mat4, p: Vec3) -> [f32; 4] {
    let h = mvp.transform_point_h(p);
    let ndc_x = h[0] / h[3];
    let ndc_y = h[1] / h[3];
    let ndc_z = h[2] / h[3];
    [
        (ndc_x * 0.5 + 0.5) * (width as f32 - 1.0),
        (0.5 - ndc_y * 0.5) * (height as f32 - 1.0), // y down
        ndc_z,
        h[3],
    ]
}

/// Not behind the near plane: w > ε, or NaN.
fn in_front(w: f32) -> bool {
    w > 1.0e-6 || w.is_nan()
}

/// `x.round() as i32` exactly (half away from zero, saturating, NaN → 0)
/// without libm: adding the largest f32 below ½, signed like x, carries a
/// fraction of ½ or more past the next integer and no smaller one (checked
/// for every f32 against `f32::round`); then the cast truncates.
fn round(x: f32) -> i32 {
    (x + 0.5f32.next_down().copysign(x)) as i32
}

/// `x.ceil() as i32` exactly (saturating, NaN → 0) without libm.
fn ceil(x: f32) -> i32 {
    let t = x as i32;
    t.saturating_add(i32::from((t as f32) < x))
}

/// The colour planes (r, g, b) a pass's mask lets through.
type Planes<'a> = [Option<&'a mut [u8]>; 3];

/// One pass's Z buffer and colour planes.
struct Target<'a> {
    width: usize,
    height: usize,
    depth: &'a mut [f32],
    planes: Planes<'a>,
    /// Every pixel written.
    written: Span,
    /// The run of samples on one pixel: its index (`usize::MAX`: none) and
    /// the z its depth-tested writes would leave (NaN: none yet).
    run: (usize, f32),
    /// The current polyline's vertices through [`project_h`].
    screen: Vec<[f32; 4]>,
}

impl<'a> Target<'a> {
    fn new(width: usize, height: usize, depth: &'a mut [f32], planes: Planes<'a>) -> Self {
        Target {
            width,
            height,
            depth,
            planes,
            written: Span::EMPTY,
            run: (usize::MAX, f32::NAN),
            screen: Vec::new(),
        }
    }

    /// A depth-tested plot in colour `c`, folded into the run of samples on
    /// its pixel; [`Target::end_run`] writes the run. Within one colour only
    /// the order of writes to a pixel shows, and a run of depth-tested
    /// writes leaves what one write of its last z comparing ≤ every earlier
    /// one leaves: a ±0.0 tie goes to the later sample, a NaN z drops out.
    fn sample(&mut self, (x, y, z): (i32, i32, f32), c: Rgb) {
        if x < 0 || y < 0 || x >= self.width as i32 || y >= self.height as i32 {
            return;
        }
        let idx = y as usize * self.width + x as usize;
        if idx != self.run.0 {
            self.end_run(c);
            self.run.0 = idx;
        }
        let least = &mut self.run.1;
        if z <= *least || least.is_nan() {
            *least = z;
        }
    }

    fn end_run(&mut self, c: Rgb) {
        let (idx, z) = std::mem::replace(&mut self.run, (usize::MAX, f32::NAN));
        if idx != usize::MAX && z <= self.depth[idx] {
            self.depth[idx] = z;
            for (plane, v) in self.planes.iter_mut().zip([c.r, c.g, c.b]) {
                if let Some(plane) = plane {
                    plane[idx] = v;
                }
            }
            self.written = self.written.union(Span(idx, idx + 1));
        }
    }

    /// DDA: sample `s` of `steps` lands on `a + (b − a)·(s / steps)`, rounded.
    fn line(&mut self, a: (f32, f32, f32), b: (f32, f32, f32), c: Rgb) {
        let d = (b.0 - a.0, b.1 - a.1, b.2 - a.2);
        let reach = d.0.abs().max(d.1.abs());
        let at = |t: f32| (round(a.0 + d.0 * t), round(a.1 + d.1 * t), a.2 + d.2 * t);
        if reach > 0.0 && reach <= 1.0 {
            // One step, every segment of a dense path: `s / steps` is 0, 1.
            self.sample(at(0.0), c);
            return self.sample(at(1.0), c);
        }
        let steps = ceil(reach);
        if steps == 0 {
            return self.sample((round(a.0), round(a.1), a.2), c);
        }
        let step = |s: i32| at(s as f32 / steps as f32);
        // Longer than the viewport (a point grazing the eye: ~1e8 px)?
        // Walk only the samples that land on it.
        let (mut first, mut last) = (1, i64::from(steps));
        if steps as usize > self.width.max(self.height) {
            let (x0, x1) = on_screen(steps, self.width, |s| step(s).0);
            let (y0, y1) = on_screen(steps, self.height, |s| step(s).1);
            (first, last) = (x0.max(y0), x1.min(y1));
        }
        self.sample(step(0), c);
        for s in first..=last {
            self.sample(step(s as i32), c);
        }
    }

    /// Projects the vertices in one pass, then draws each segment whose
    /// endpoints are both in front of the eye.
    fn polyline(&mut self, mvp: &Mat4, points: &[Vec3], c: Rgb) {
        self.screen.clear();
        let (w, h) = (self.width, self.height);
        self.screen
            .extend(points.iter().map(|&p| project_h(w, h, mvp, p)));
        for i in 1..self.screen.len() {
            let ([ax, ay, az, aw], [bx, by, bz, bw]) = (self.screen[i - 1], self.screen[i]);
            if in_front(aw) && in_front(bw) {
                self.line((ax, ay, az), (bx, by, bz), c);
            }
        }
        self.end_run(c);
    }
}

/// The samples in `1..=steps` whose pixel coordinate `at(s)` lies in
/// `0..len`. Each step of `a + d·(s / steps)` and `round` is monotone, so
/// from sample 1 on (sample 0 can be `±∞·0` = NaN, i.e. pixel 0) the
/// coordinate moves one way and those samples form one run.
fn on_screen(steps: i32, len: usize, at: impl Fn(i32) -> i32) -> (i64, i64) {
    let max = len as i64 - 1;
    // Mirror a falling run (v ↦ max − v) to search it as a rising one.
    let (base, sign) = if at(steps) < at(1) { (max, -1) } else { (0, 1) };
    let at = |s| base + sign * i64::from(at(s));
    let first = bisect(steps, |s| at(s) < 0);
    (first, bisect(steps, |s| at(s) <= max) - 1)
}

/// The first `s` in `1..=steps` where `p` is false (`steps + 1` if none);
/// `p` must hold on a prefix.
fn bisect(steps: i32, p: impl Fn(i32) -> bool) -> i64 {
    let mut held = 0; // `p` holds on `1..=held`
    for bit in (0..31).rev() {
        let s = held + (1 << bit);
        if s <= i64::from(steps) && p(s as i32) {
            held = s;
        }
    }
    held + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use vecmath::Mat4;

    #[test]
    fn round_and_ceil_match_libm() {
        // The edges (halves, the largest f32 below ½, where f32 turns
        // integer, the i32 limits, ±∞, NaN, −0.0), then every 4099th f32.
        let edges = [
            0.5f32.next_down(),
            0.5,
            -0.5,
            2.5,
            -2.5,
            8_388_607.5,
            8_388_608.0,
        ];
        let limits = [2_147_483_520.0, 2_147_483_648.0, -2_147_483_648.0, -0.0];
        let specials = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        let strided = (0..=u32::MAX).step_by(4099).map(f32::from_bits);
        for x in edges
            .into_iter()
            .chain(limits)
            .chain(specials)
            .chain(strided)
        {
            assert_eq!(round(x), x.round() as i32, "round {x:e}");
            assert_eq!(ceil(x), x.ceil() as i32, "ceil {x:e}");
        }
    }

    #[test]
    fn clear_fills_and_resets_depth() {
        let mut fb = Framebuffer::new(8, 8);
        fb.set_pixel(3, 3, 0.5, Rgb::WHITE);
        fb.clear(Rgb::new(1, 2, 3));
        assert_eq!(fb.pixel(3, 3), Rgb::new(1, 2, 3));
        assert_eq!(fb.depth_at(3, 3), f32::INFINITY);
    }

    #[test]
    fn depth_test_keeps_nearer_pixel() {
        let mut fb = Framebuffer::new(4, 4);
        fb.set_pixel(1, 1, 0.5, Rgb::red(100));
        fb.set_pixel(1, 1, 0.8, Rgb::red(200)); // farther: rejected
        assert_eq!(fb.pixel(1, 1), Rgb::red(100));
        fb.set_pixel(1, 1, 0.2, Rgb::red(50)); // nearer: wins
        assert_eq!(fb.pixel(1, 1), Rgb::red(50));
    }

    #[test]
    fn writemask_protects_channels() {
        let mut fb = Framebuffer::new(4, 4);
        fb.set_mask(ColorMask::RED_ONLY);
        fb.set_pixel(0, 0, 0.5, Rgb::new(10, 20, 30));
        assert_eq!(fb.pixel(0, 0), Rgb::new(10, 0, 0));
        fb.clear_depth();
        fb.set_mask(ColorMask::PROTECT_RED);
        fb.set_pixel(0, 0, 0.5, Rgb::new(99, 88, 77));
        // Red survives; green/blue written.
        assert_eq!(fb.pixel(0, 0), Rgb::new(10, 88, 77));
    }

    #[test]
    fn paper_stereo_sequence() {
        // Left eye in red, clear Z (not color), right eye in blue behind a
        // red-protecting writemask → overlapping pixels hold both.
        let mut fb = Framebuffer::new(8, 8);
        fb.set_mask(ColorMask::RED_ONLY);
        fb.draw_line_screen((1.0, 4.0, 0.1), (6.0, 4.0, 0.1), Rgb::red(200));
        fb.clear_depth();
        fb.set_mask(ColorMask::PROTECT_RED);
        fb.draw_line_screen((2.0, 4.0, 0.9), (7.0, 4.0, 0.9), Rgb::blue(150));
        // Overlap pixel (4, 4): red from the left eye, blue from the
        // right — even though the blue pass is *farther* in z, because Z
        // was cleared between eyes.
        assert_eq!(fb.pixel(4, 4), Rgb::new(200, 0, 150));
        // Left-only pixel.
        assert_eq!(fb.pixel(1, 4), Rgb::new(200, 0, 0));
        // Right-only pixel.
        assert_eq!(fb.pixel(7, 4), Rgb::new(0, 0, 150));
    }

    #[test]
    fn line_endpoints_are_drawn() {
        let mut fb = Framebuffer::new(16, 16);
        fb.draw_line_screen((2.0, 3.0, 0.0), (12.0, 9.0, 0.0), Rgb::WHITE);
        assert_eq!(fb.pixel(2, 3), Rgb::WHITE);
        assert_eq!(fb.pixel(12, 9), Rgb::WHITE);
    }

    #[test]
    fn degenerate_line_is_a_point() {
        let mut fb = Framebuffer::new(4, 4);
        fb.draw_line_screen((1.0, 1.0, 0.0), (1.0, 1.0, 0.0), Rgb::WHITE);
        assert_eq!(fb.pixel(1, 1), Rgb::WHITE);
        assert_eq!(fb.count_pixels(|c| c == Rgb::WHITE), 1);
    }

    #[test]
    fn out_of_bounds_writes_are_clipped() {
        let mut fb = Framebuffer::new(4, 4);
        fb.set_pixel(-1, 0, 0.0, Rgb::WHITE);
        fb.set_pixel(0, 99, 0.0, Rgb::WHITE);
        fb.draw_line_screen((-10.0, 2.0, 0.0), (10.0, 2.0, 0.0), Rgb::WHITE);
        // Line crosses the buffer: in-bounds pixels drawn, no panic.
        assert!(fb.count_pixels(|c| c == Rgb::WHITE) >= 4);
    }

    #[test]
    fn huge_segment_walks_only_its_visible_samples() {
        let mut fb = Framebuffer::new(640, 480);
        let started = std::time::Instant::now();
        fb.draw_line_screen((-1.0e9, -1.0e9, 0.0), (1.0e9, 1.0e9, 0.0), Rgb::WHITE);
        assert!(started.elapsed() < std::time::Duration::from_millis(20));
        // At 1e9 px an f32 sample step is ~100 px: a sparse diagonal.
        let lit = (0..480).filter(|&i| fb.pixel(i, i) == Rgb::WHITE).count();
        assert!(lit > 0);
        assert_eq!(fb.count_pixels(|c| c == Rgb::WHITE), lit);
    }

    #[test]
    fn project_center_of_view() {
        let fb = Framebuffer::new(100, 100);
        let mvp = Mat4::perspective(1.0, 1.0, 0.1, 100.0);
        let (x, y, _z) = fb.project(&mvp, Vec3::new(0.0, 0.0, -5.0)).unwrap();
        assert!((x - 49.5).abs() < 1.0);
        assert!((y - 49.5).abs() < 1.0);
    }

    #[test]
    fn project_behind_eye_is_none() {
        let fb = Framebuffer::new(100, 100);
        let mvp = Mat4::perspective(1.0, 1.0, 0.1, 100.0);
        assert!(fb.project(&mvp, Vec3::new(0.0, 0.0, 5.0)).is_none());
    }

    #[test]
    fn polyline_draws_visible_segments() {
        let mut fb = Framebuffer::new(64, 64);
        let mvp = Mat4::perspective(1.0, 1.0, 0.1, 100.0);
        let pts = vec![
            Vec3::new(-1.0, 0.0, -5.0),
            Vec3::new(1.0, 0.0, -5.0),
            Vec3::new(1.0, 0.0, 5.0), // behind the eye: segment dropped
        ];
        fb.draw_polyline(&mvp, &pts, Rgb::WHITE);
        assert!(fb.count_pixels(|c| c == Rgb::WHITE) > 5);
    }

    #[test]
    fn triangle_fill_covers_interior() {
        let mut fb = Framebuffer::new(32, 32);
        fb.fill_triangle_screen(
            (4.0, 4.0, 0.0),
            (28.0, 4.0, 0.0),
            (4.0, 28.0, 0.0),
            Rgb::WHITE,
        );
        // Interior point filled; outside the hypotenuse empty.
        assert_eq!(fb.pixel(8, 8), Rgb::WHITE);
        assert_eq!(fb.pixel(27, 27), Rgb::BLACK);
        // Roughly half the bounding square.
        let filled = fb.count_pixels(|c| c == Rgb::WHITE);
        assert!((200..500).contains(&filled), "filled {filled}");
    }

    #[test]
    fn triangle_winding_does_not_matter() {
        let mut a = Framebuffer::new(16, 16);
        let mut b = Framebuffer::new(16, 16);
        a.fill_triangle_screen(
            (2.0, 2.0, 0.0),
            (14.0, 2.0, 0.0),
            (2.0, 14.0, 0.0),
            Rgb::WHITE,
        );
        b.fill_triangle_screen(
            (2.0, 14.0, 0.0),
            (14.0, 2.0, 0.0),
            (2.0, 2.0, 0.0),
            Rgb::WHITE,
        );
        // Edge-pixel ties may resolve differently per winding; the
        // interiors must match to within the perimeter.
        let ca = a.count_pixels(|c| c == Rgb::WHITE) as i64;
        let cb = b.count_pixels(|c| c == Rgb::WHITE) as i64;
        assert!((ca - cb).abs() <= 16, "{ca} vs {cb}");
        // Interior pixel covered in both.
        assert_eq!(a.pixel(4, 4), Rgb::WHITE);
        assert_eq!(b.pixel(4, 4), Rgb::WHITE);
    }

    #[test]
    fn degenerate_triangle_draws_edges() {
        let mut fb = Framebuffer::new(16, 16);
        fb.fill_triangle_screen(
            (2.0, 8.0, 0.0),
            (12.0, 8.0, 0.0),
            (7.0, 8.0, 0.0),
            Rgb::WHITE,
        );
        assert!(fb.count_pixels(|c| c == Rgb::WHITE) >= 10);
    }

    #[test]
    fn triangles_z_buffer_against_lines() {
        let mut fb = Framebuffer::new(32, 32);
        let mvp = Mat4::perspective(1.0, 1.0, 0.1, 100.0);
        // A big triangle at z=-10, a nearer line at z=-2 crossing it.
        fb.draw_triangles(
            &mvp,
            &[[
                Vec3::new(-2.0, -2.0, -10.0),
                Vec3::new(2.0, -2.0, -10.0),
                Vec3::new(0.0, 2.0, -10.0),
            ]],
            Rgb::new(0, 255, 0),
        );
        fb.draw_polyline(
            &mvp,
            &[Vec3::new(-0.3, 0.0, -2.0), Vec3::new(0.3, 0.0, -2.0)],
            Rgb::red(255),
        );
        // Some red survived on top of the green triangle.
        assert!(fb.count_pixels(|c| c.r > 0) > 0);
        assert!(fb.count_pixels(|c| c.g > 0) > 20);
    }

    #[test]
    fn nearer_geometry_occludes() {
        let mut fb = Framebuffer::new(32, 32);
        let mvp = Mat4::perspective(1.0, 1.0, 0.1, 100.0);
        // Far line first, near line second; both cross the center.
        fb.draw_polyline(
            &mvp,
            &[Vec3::new(-1.0, 0.0, -10.0), Vec3::new(1.0, 0.0, -10.0)],
            Rgb::red(255),
        );
        fb.draw_polyline(
            &mvp,
            &[Vec3::new(-0.1, 0.0, -2.0), Vec3::new(0.1, 0.0, -2.0)],
            Rgb::blue(255),
        );
        // Wherever both lines landed, the nearer (blue) line won the
        // depth test; the far red line survives only outside the overlap.
        let mut blue_center = false;
        for y in 14..=17 {
            for x in 14..=17 {
                let c = fb.pixel(x, y);
                if c.b > 0 {
                    blue_center = true;
                    assert_eq!(c.r, 0, "red leaked through at ({x},{y})");
                }
            }
        }
        assert!(blue_center, "near blue line missing from center region");
        assert!(fb.count_pixels(|c| c.r > 0) > 0, "far line fully occluded");
    }
}
